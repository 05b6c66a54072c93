package pipeline

// This file pins the compiled-op execution loop and the dense worklist
// fixpoint to the semantics of the original implementation: oracleExec
// is a line-for-line port of the old per-instruction ExecBlock (SrcRegs
// slices, ExLat map lookups) and oracleAnalyzeCosts of the old
// whole-graph round-robin iteration over map[BlockID]Context state.
// Property tests drive both through random CFGs and random latency
// assignments and demand exact agreement.

import (
	"fmt"
	"math/rand"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/isa"
)

// oracleExec is the retired instruction-at-a-time ExecBlock.
func oracleExec(pc Config, b *cfg.Block, tim TimingFn, in Context) BlockTiming {
	if b.IsExit() || b.Len() == 0 {
		return BlockTiming{Dur: 0, Out: in, Resolve: 0}
	}
	insts := b.Insts()
	prevIDs := in.Avail[IF]
	prevEXs := in.Avail[ID]
	prevMEMs := in.Avail[EX]
	prevWBs := in.Avail[MEM]
	prevWBd := in.Avail[WB]
	port := in.Port
	var ready [isa.NumRegs]int
	copy(ready[:], in.RegReady[:])

	var lastEXd int
	for i, inst := range insts {
		t := tim(b, i)
		fetch := max(1, t.Fetch)
		mem := 1
		if inst.IsMem() {
			mem = max(1, t.Mem)
		}
		ex := pc.exLat(inst)

		ifs := prevIDs
		var ifd int
		if t.FetchMiss {
			start := max(ifs, port)
			ifd = start + fetch
			port = ifd
		} else {
			ifd = ifs + fetch
		}
		ids := max(ifd, prevEXs)
		exs := max(ids+1, prevMEMs)
		for _, r := range SrcRegs(inst) {
			if ready[r] > exs {
				exs = ready[r]
			}
		}
		mems := max(exs+ex, prevWBs)
		var memDone int
		if inst.IsMem() && t.MemMiss {
			start := max(mems, port)
			memDone = start + mem
			port = memDone
		} else {
			memDone = mems + mem
		}
		wbs := max(memDone, prevWBd)
		wbd := wbs + 1

		if rd, ok := DstReg(inst); ok {
			if inst.Op == isa.LD {
				ready[rd] = memDone
			} else {
				ready[rd] = exs + ex
			}
		}
		prevIDs, prevEXs, prevMEMs, prevWBs, prevWBd = ids, exs, mems, wbs, wbd
		lastEXd = exs + ex
	}
	dur := prevWBd
	var out Context
	out.Avail[IF] = clamp(prevIDs - dur)
	out.Avail[ID] = clamp(prevEXs - dur)
	out.Avail[EX] = clamp(prevMEMs - dur)
	out.Avail[MEM] = clamp(prevWBs - dur)
	out.Avail[WB] = clamp(prevWBd - dur)
	out.Port = clamp(port - dur)
	for r := range out.RegReady {
		out.RegReady[r] = clamp(ready[r] - dur)
	}
	return BlockTiming{Dur: dur, Out: out, Resolve: lastEXd}
}

// oracleAnalyzeCosts is the retired round-robin whole-RPO fixpoint over
// map state.
type oracleCosts struct {
	In   map[cfg.BlockID]Context
	Cost map[cfg.BlockID]int
}

func oracleAnalyzeCosts(g *cfg.Graph, pc Config, worst, base TimingFn) (*oracleCosts, error) {
	in := map[cfg.BlockID]Context{}
	in[g.Entry.ID] = EntryContext()
	seen := map[cfg.BlockID]bool{g.Entry.ID: true}
	for iter := 0; ; iter++ {
		if iter > maxFixIter {
			return nil, fmt.Errorf("pipeline: context fixpoint did not converge")
		}
		changed := false
		for _, b := range g.RPO() {
			if !seen[b.ID] {
				continue
			}
			bt := oracleExec(pc, b, worst, in[b.ID])
			for _, e := range b.Succs {
				ec := EdgeContext(pc, bt, e)
				cur, ok := in[e.To.ID]
				var next Context
				if ok {
					next = cur.Join(ec)
				} else {
					next = ec
				}
				if !ok || next != cur {
					in[e.To.ID] = next
					seen[e.To.ID] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	res := &oracleCosts{In: in, Cost: map[cfg.BlockID]int{}}
	for _, b := range g.Blocks {
		res.Cost[b.ID] = oracleExec(pc, b, base, in[b.ID]).Dur
	}
	return res, nil
}

// randProgram emits a structured random program: nested counted loops,
// data-dependent branches, loads/stores and a mix of EX classes, all
// with derivable bounds so cfg.Build succeeds.
func randProgram(t testing.TB, rng *rand.Rand) *cfg.Graph {
	var src string
	outer := 1 + rng.Intn(6)
	inner := 1 + rng.Intn(7)
	src += fmt.Sprintf("        li   r1, %d\n", outer)
	src += "        li   r7, 0x8000\n"
	src += "outer:  li   r2, " + fmt.Sprint(inner) + "\n"
	src += "inner:  "
	body := []string{
		"mul  r4, r2, r2\n",
		"div  r5, r4, r2\n",
		"ld   r3, 0(r7)\n",
		"st   r3, 4(r7)\n",
		"add  r5, r5, r4\n",
		"addi r7, r7, 4\n",
		"mov  r6, r5\n",
	}
	nbody := 1 + rng.Intn(6)
	for i := 0; i < nbody; i++ {
		if i > 0 {
			src += "        "
		}
		src += body[rng.Intn(len(body))]
	}
	if rng.Intn(2) == 0 {
		src += "        andi r8, r2, 1\n"
		src += "        beq  r8, r0, even\n"
		src += "        mul  r9, r2, r2\n"
		src += "        j    next\n"
		src += "even:   add  r9, r9, r2\n"
		src += "next:   nop\n"
	}
	src += "        addi r2, r2, -1\n"
	src += "        bne  r2, r0, inner\n"
	src += "        addi r1, r1, -1\n"
	src += "        bne  r1, r0, outer\n"
	src += "        halt\n"
	g, err := cfg.Build(isa.MustAssemble("rand", src))
	if err != nil {
		t.Fatalf("build: %v\n%s", err, src)
	}
	return g
}

// randTiming returns a deterministic pseudo-random timing assignment,
// optionally marking misses that occupy the blocking port.
func randTiming(seed int64, maxFetch, maxMem int) TimingFn {
	return func(b *cfg.Block, i int) InstTiming {
		h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(b.ID)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
		h ^= h >> 31
		t := InstTiming{
			Fetch: 1 + int(h%uint64(maxFetch)),
			Mem:   1 + int((h>>8)%uint64(maxMem)),
		}
		t.FetchMiss = h>>16&3 == 0
		t.MemMiss = h>>20&3 == 0
		return t
	}
}

// agreesWithOracle reports whether the dense result matches the
// oracle's maps exactly: same reached set, same contexts, same costs.
func agreesWithOracle(g *cfg.Graph, want *oracleCosts, got *fixResult) string {
	for _, b := range g.Blocks {
		wc, reached := want.In[b.ID]
		gc, ok := got.In(b.ID)
		if reached != ok {
			return fmt.Sprintf("block %v: reached %v, oracle %v", b, ok, reached)
		}
		if reached && wc != gc {
			return fmt.Sprintf("block %v: in-context %+v, oracle %+v", b, gc, wc)
		}
		if got.Cost(b.ID) != want.Cost[b.ID] {
			return fmt.Sprintf("block %v: cost %d, oracle %d", b, got.Cost(b.ID), want.Cost[b.ID])
		}
	}
	return ""
}

// TestAnalyzeCostsMatchesOracle drives the compiled worklist fixpoint
// and the retired round-robin implementation through random CFGs,
// pipeline configs and latency assignments, demanding exact agreement
// of both the context fixpoint and every block cost.
func TestAnalyzeCostsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		g := randProgram(t, rng)
		pc := DefaultConfig()
		if rng.Intn(2) == 0 {
			pc.BranchPenalty = rng.Intn(6)
			pc.ExLat[isa.ClassMul] = 1 + rng.Intn(6)
			pc.ExLat[isa.ClassDiv] = 1 + rng.Intn(20)
		}
		worst := randTiming(int64(trial), 1+rng.Intn(10), 1+rng.Intn(30))
		base := randTiming(int64(trial)^7, 1+rng.Intn(4), 1+rng.Intn(8))

		want, err := oracleAnalyzeCosts(g, pc, worst, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeCosts(g, pc, worst, base)
		if err != nil {
			t.Fatal(err)
		}
		if diff := agreesWithOracle(g, want, got); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// TestAnalyzeCostsResetsScratch: fixpoint state that a pooled scratch
// still holds from an earlier call — contexts far from the entry
// context, every block marked reached, room for a larger graph — must
// not leak into the next call, whose entry and unreached blocks start
// from the zero entry context.
func TestAnalyzeCostsResetsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		g := randProgram(t, rng)
		pc := DefaultConfig()
		worst := randTiming(int64(trial), 6, 12)
		base := randTiming(int64(trial)^5, 2, 4)
		want, err := oracleAnalyzeCosts(g, pc, worst, base)
		if err != nil {
			t.Fatal(err)
		}
		n := len(g.Blocks) + 3
		s := &fixScratch{in: make([]Context, n), seen: make([]bool, n), wl: cfg.NewWorklist(n)}
		for i := range s.in {
			s.in[i].Avail[IF], s.in[i].Port = 40, 40
			for r := range s.in[i].RegReady {
				s.in[i].RegReady[r] = 40
			}
			s.seen[i] = true
		}
		res, err := Compile(g).analyze(pc, worst, base, s)
		if err != nil {
			t.Fatal(err)
		}
		if diff := agreesWithOracle(g, want, &fixResult{CostResult: res, in: s.in, seen: s.seen}); diff != "" {
			t.Fatalf("trial %d, dirty scratch: %s", trial, diff)
		}
	}
}

// TestExecBlockMatchesOracle compares the compiled op loop against the
// retired instruction loop on every block of random graphs from random
// contexts.
func TestExecBlockMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		g := randProgram(t, rng)
		pc := DefaultConfig()
		tim := randTiming(int64(trial), 6, 20)
		var in Context
		for i := range in.Avail {
			in.Avail[i] = -rng.Intn(12)
		}
		for i := range in.RegReady {
			in.RegReady[i] = -rng.Intn(12)
		}
		in.Port = -rng.Intn(12)
		for _, b := range g.Blocks {
			want := oracleExec(pc, b, tim, in)
			got := ExecBlock(pc, b, tim, in)
			if want != got {
				t.Fatalf("trial %d block %v: %+v != oracle %+v", trial, b, got, want)
			}
		}
	}
}

// TestCompiledSharedAcrossGoroutines exercises one compiled model from
// many concurrent AnalyzeCosts calls (the engine's clone-sharing shape);
// run with -race to validate the immutability contract.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randProgram(t, rng)
	c := Compile(g)
	pc := DefaultConfig()
	ref, err := oracleAnalyzeCosts(g, pc, randTiming(1, 5, 9), randTiming(2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for w := 0; w < 16; w++ {
		go func() {
			res, err := c.AnalyzeCosts(pc, randTiming(1, 5, 9), randTiming(2, 2, 3))
			if err != nil {
				done <- err
				return
			}
			for _, b := range g.Blocks {
				if res.Cost(b.ID) != ref.Cost[b.ID] {
					done <- fmt.Errorf("concurrent cost of block %v: %d, oracle %d", b, res.Cost(b.ID), ref.Cost[b.ID])
					return
				}
			}
			full, err := c.analyzeContexts(pc, randTiming(1, 5, 9), randTiming(2, 2, 3))
			if err == nil {
				if diff := agreesWithOracle(g, ref, full); diff != "" {
					err = fmt.Errorf("concurrent result diverged: %s", diff)
				}
			}
			done <- err
		}()
	}
	for w := 0; w < 16; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzExecBlockOracle decodes arbitrary bytes into a straight-line
// program plus a latency assignment and cross-checks the compiled op
// loop against the retired instruction loop.
func FuzzExecBlockOracle(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0xFF, 0x07}, int64(3))
	f.Add([]byte{0xA0, 0x00, 0x13, 0x9C, 0x55, 0x21, 0x08}, int64(9))
	ops := []isa.Op{
		isa.NOP, isa.LI, isa.MOV, isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM,
		isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT,
		isa.ADDI, isa.ANDI, isa.ORI, isa.SLLI, isa.SRLI, isa.SLTI,
		isa.LD, isa.ST,
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		p := &isa.Program{Name: "fuzz"}
		for i := 0; i+1 < len(data); i += 2 {
			op := ops[int(data[i])%len(ops)]
			in := isa.Inst{
				Op:  op,
				Rd:  isa.Reg(data[i+1] % isa.NumRegs),
				Rs1: isa.Reg((data[i+1] >> 2) % isa.NumRegs),
				Rs2: isa.Reg((data[i+1] >> 4) % isa.NumRegs),
				Imm: int32(data[i]) * 4,
			}
			if op == isa.LD || op == isa.ST {
				in.Rs1 = isa.Reg(8 + data[i+1]%4) // plausible base register
			}
			p.Insts = append(p.Insts, in)
		}
		p.Insts = append(p.Insts, isa.Inst{Op: isa.HALT})
		g, err := cfg.Build(p)
		if err != nil {
			t.Skip()
		}
		pc := DefaultConfig()
		pc.BranchPenalty = int(seed & 7)
		tim := randTiming(seed, 1+int(seed>>3&15), 1+int(seed>>7&31))
		var in Context
		h := uint64(seed) * 0x9E3779B97F4A7C15
		for i := range in.Avail {
			in.Avail[i] = -int(h >> (4 * i) & 15)
		}
		for i := range in.RegReady {
			in.RegReady[i] = -int(h >> (2 * i) & 31)
		}
		for _, b := range g.Blocks {
			want := oracleExec(pc, b, tim, in)
			got := ExecBlock(pc, b, tim, in)
			if want != got {
				t.Fatalf("block %v: compiled %+v != oracle %+v", b, got, want)
			}
		}
		want, err := oracleAnalyzeCosts(g, pc, tim, tim)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeCosts(g, pc, tim, tim)
		if err != nil {
			t.Fatal(err)
		}
		if diff := agreesWithOracle(g, want, got); diff != "" {
			t.Fatal(diff)
		}
	})
}
