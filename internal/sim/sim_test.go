package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/pipeline"
)

// testMemCfg is the memory device every test uses.
func testMemCfg() memctrl.Config { return memctrl.DefaultConfig() }

func l1i() cache.Config {
	return cache.Config{Name: "L1I", Sets: 8, Ways: 2, LineBytes: 16, HitLatency: 1}
}
func l1d() cache.Config {
	return cache.Config{Name: "L1D", Sets: 8, Ways: 2, LineBytes: 16, HitLatency: 1}
}
func l2() cache.Config {
	return cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
}

// staticSys mirrors a sim core configuration for the static analyzer.
func staticSys(busDelay int, withL2 bool) core.SystemConfig {
	sys := core.SystemConfig{
		Pipeline: pipeline.DefaultConfig(),
		Mem: core.MemSystem{
			L1I:        l1i(),
			L1D:        l1d(),
			BusDelay:   busDelay,
			MemLatency: testMemCfg().Bound(),
		},
	}
	if withL2 {
		c := l2()
		sys.Mem.L2 = &c
	}
	return sys
}

func simCore(name string, prog *isa.Program) CoreConfig {
	return CoreConfig{Name: name, Prog: prog, Pipe: pipeline.DefaultConfig(), L1I: l1i(), L1D: l1d()}
}

var testPrograms = map[string]string{
	"countdown": `
        li   r1, 25
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`,
	"nested": `
        li   r1, 5
outer:  li   r2, 6
inner:  mul  r4, r2, r2
        add  r5, r5, r4
        addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`,
	"memwalk": `
        li   r1, 0x8000
        li   r3, 0x8100
loop:   ld   r2, 0(r1)
        add  r4, r4, r2
        st   r4, 0(r1)
        addi r1, r1, 4
        bne  r1, r3, loop
        halt`,
	"scalar": `
        li   r1, 0x9000
        li   r5, 30
loop:   ld   r2, 0(r1)
        addi r2, r2, 3
        st   r2, 0(r1)
        addi r5, r5, -1
        bne  r5, r0, loop
        halt`,
	"branchy": `
        li   r1, 18
loop:   andi r3, r1, 1
        beq  r3, r0, even
        mul  r4, r1, r1
        j    next
even:   add  r4, r4, r1
next:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`,
}

func prog(t *testing.T, name string) *isa.Program {
	t.Helper()
	src, ok := testPrograms[name]
	if !ok {
		t.Fatalf("no program %q", name)
	}
	return isa.MustAssemble(name, src)
}

func TestSingleCoreRunsToCompletion(t *testing.T) {
	for name := range testPrograms {
		p := prog(t, name)
		res, err := Run(System{Cores: []CoreConfig{simCore(name, p)}, Mem: testMemCfg()}, 1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Architectural agreement: retired counts match the reference
		// executor.
		st := isa.NewState(p)
		want, err := st.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats[0].Retired != want {
			t.Errorf("%s: retired %d, reference %d", name, res.Stats[0].Retired, want)
		}
		if res.Stats[0].Cycles <= int64(want) {
			t.Errorf("%s: cycles %d below retired count %d", name, res.Stats[0].Cycles, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := prog(t, "nested")
	sys := System{
		Cores:    []CoreConfig{simCore("a", p), simCore("b", prog(t, "memwalk"))},
		L2:       ptr(l2()),
		SharedL2: true,
		Bus:      arbiter.NewRoundRobin(2, 30),
		Mem:      testMemCfg(),
	}
	r1, err := Run(sys, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sys.Bus = arbiter.NewRoundRobin(2, 30) // fresh arbiter state
	r2, err := Run(sys, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Stats {
		if r1.Stats[i] != r2.Stats[i] {
			t.Errorf("core %d stats differ between runs:\n%+v\n%+v", i, r1.Stats[i], r2.Stats[i])
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestStaticWCETBoundsSimulation is the toolkit's central soundness
// property (survey §2.1): for every test program and several memory
// configurations, the static WCET must bound the simulated cycles.
func TestStaticWCETBoundsSimulation(t *testing.T) {
	for name := range testPrograms {
		for _, withL2 := range []bool{false, true} {
			p := prog(t, name)
			sys := System{Cores: []CoreConfig{simCore(name, p)}, Mem: testMemCfg()}
			if withL2 {
				sys.L2 = ptr(l2())
			}
			simRes, err := Run(sys, 10_000_000)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a, err := core.Analyze(core.Task{Name: name, Prog: p}, staticSys(0, withL2))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.WCET < simRes.Cycles(0) {
				t.Errorf("%s (L2=%v): UNSOUND static WCET %d < simulated %d",
					name, withL2, a.WCET, simRes.Cycles(0))
			}
			// Sanity against gross over-estimation (documented slack).
			if a.WCET > simRes.Cycles(0)*25 {
				t.Errorf("%s (L2=%v): WCET %d implausibly loose vs sim %d",
					name, withL2, a.WCET, simRes.Cycles(0))
			}
		}
	}
}

// TestRoundRobinIsolation validates E12: with private L2s and a
// round-robin bus, the per-core static WCET computed with D = N·L−1 bounds
// the simulated time under any co-runner mix, and observed waits never
// exceed the bound.
func TestRoundRobinIsolation(t *testing.T) {
	names := []string{"memwalk", "scalar", "countdown", "nested"}
	for n := 2; n <= 4; n++ {
		lat := l2().HitLatency + testMemCfg().Bound()
		bus := arbiter.NewRoundRobin(n, lat)
		var cores []CoreConfig
		for i := 0; i < n; i++ {
			p := prog(t, names[i%len(names)])
			cc := simCore(fmt.Sprintf("c%d", i), p)
			cores = append(cores, cc)
		}
		sys := System{Cores: cores, L2: ptr(l2()), SharedL2: false, Bus: bus, Mem: testMemCfg()}
		simRes, err := Run(sys, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cores {
			if w := simRes.Stats[i].BusWaitMax; w > int64(bus.Bound(i)) {
				t.Errorf("n=%d core %d: observed wait %d exceeds bound %d", n, i, w, bus.Bound(i))
			}
			a, err := core.Analyze(core.Task{Name: cores[i].Name, Prog: cores[i].Prog},
				staticSys(bus.Bound(i), true))
			if err != nil {
				t.Fatal(err)
			}
			if a.WCET < simRes.Cycles(i) {
				t.Errorf("n=%d core %d: UNSOUND isolated WCET %d < simulated %d",
					n, i, a.WCET, simRes.Cycles(i))
			}
		}
	}
}

// TestTDMAIsolation: same soundness with a TDMA bus, using the coarse
// sum-of-other-slots bound the survey discusses for static analysis.
func TestTDMAIsolation(t *testing.T) {
	lat := l2().HitLatency + testMemCfg().Bound()
	bus := arbiter.NewTDMA([]arbiter.Slot{{Owner: 0, Len: lat}, {Owner: 1, Len: lat}}, lat)
	cores := []CoreConfig{
		simCore("a", prog(t, "memwalk")),
		simCore("b", prog(t, "scalar")),
	}
	sys := System{Cores: cores, L2: ptr(l2()), Bus: bus, Mem: testMemCfg()}
	simRes, err := Run(sys, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cores {
		if w := simRes.Stats[i].BusWaitMax; w > int64(bus.Bound(i)) {
			t.Errorf("core %d: observed wait %d exceeds exact TDMA bound %d", i, w, bus.Bound(i))
		}
		a, err := core.Analyze(core.Task{Name: cores[i].Name, Prog: cores[i].Prog},
			staticSys(bus.SumOfOtherSlots(i), true))
		if err != nil {
			t.Fatal(err)
		}
		if a.WCET < simRes.Cycles(i) {
			t.Errorf("core %d: UNSOUND TDMA WCET %d < simulated %d", i, a.WCET, simRes.Cycles(i))
		}
	}
}

// TestSharedL2InterferenceObservable reproduces the survey's §2.2 point:
// with a shared L2, co-runners slow a task down relative to running alone
// (the solo analysis assumption breaks).
func TestSharedL2InterferenceObservable(t *testing.T) {
	victim := prog(t, "scalar")
	// A thrashing co-runner rewriting many distinct lines.
	thrasher := isa.MustAssemble("thrash", `
        li   r1, 0xA000
        li   r3, 0xB000
loop:   st   r2, 0(r1)
        addi r1, r1, 32
        bne  r1, r3, loop
        halt`)
	smallL2 := cache.Config{Name: "L2", Sets: 8, Ways: 2, LineBytes: 32, HitLatency: 4}
	solo := System{
		Cores: []CoreConfig{simCore("victim", victim)},
		L2:    &smallL2, SharedL2: true, Mem: testMemCfg(),
	}
	soloRes, err := Run(solo, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	both := System{
		Cores:    []CoreConfig{simCore("victim", victim), simCore("thrash", thrasher)},
		L2:       &smallL2,
		SharedL2: true,
		Bus:      arbiter.NewRoundRobin(2, smallL2.HitLatency+testMemCfg().Bound()),
		Mem:      testMemCfg(),
	}
	bothRes, err := Run(both, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if bothRes.Cycles(0) <= soloRes.Cycles(0) {
		t.Errorf("co-runner did not slow the victim: solo %d, contended %d",
			soloRes.Cycles(0), bothRes.Cycles(0))
	}
}

// TestRandomizedSoundness fuzzes loop-nest programs and checks the static
// bound on every one.
func TestRandomizedSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		outer := 1 + rng.Intn(5)
		inner := 1 + rng.Intn(8)
		stride := 4 * (1 + rng.Intn(8))
		n := 4 + rng.Intn(12)
		src := fmt.Sprintf(`
        li   r1, %d
outer:  li   r2, %d
        li   r3, 0x8000
        li   r6, %d
inner:  ld   r4, 0(r3)
        add  r5, r5, r4
        st   r5, 0(r3)
        addi r3, r3, %d
        bne  r3, r6, inner
        addi r2, r2, -1
        bne  r2, r0, skip
skip:   addi r1, r1, -1
        bne  r1, r0, outer
        halt`, outer, inner, 0x8000+n*stride, stride)
		_ = inner
		p := isa.MustAssemble("fuzz", src)
		sys := System{Cores: []CoreConfig{simCore("fuzz", p)}, L2: ptr(l2()), Mem: testMemCfg()}
		simRes, err := Run(sys, 50_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		a, err := core.Analyze(core.Task{Name: "fuzz", Prog: p}, staticSys(0, true))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if a.WCET < simRes.Cycles(0) {
			t.Fatalf("trial %d: UNSOUND WCET %d < sim %d\n%s", trial, a.WCET, simRes.Cycles(0), src)
		}
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	p := prog(t, "nested")
	if _, err := Run(System{Cores: []CoreConfig{simCore("x", p)}, Mem: testMemCfg()}, 10); err == nil {
		t.Skip("program finished within tiny budget; guard untestable here")
	}
}

// TestMaxCyclesGuardAllHitLoop is the regression test for the simulator
// hang: a non-halting program whose accesses all hit in the L1s after
// warm-up never produces a bus transaction, so the old guard (applied
// only at bus-transaction selection) never fired and sim.Run looped
// forever. The budget must now abort the run from the retire path.
func TestMaxCyclesGuardAllHitLoop(t *testing.T) {
	spin := isa.MustAssemble("spin", `
loop:   addi r1, r1, 1
        add  r2, r2, r1
        j    loop`)
	_, err := Run(System{Cores: []CoreConfig{simCore("spin", spin)}, Mem: testMemCfg()}, 50_000)
	if err == nil {
		t.Fatal("non-halting all-hit program must exceed the cycle budget")
	}
	want := "exceeded 50000 cycles"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	// The same guard must also fire with a data working set that fits the
	// L1D (hits only after the first pass).
	spinMem := isa.MustAssemble("spinmem", `
        li   r7, 0x8000
loop:   ld   r3, 0(r7)
        addi r3, r3, 1
        st   r3, 0(r7)
        j    loop`)
	_, err = Run(System{Cores: []CoreConfig{simCore("spinmem", spinMem)}, Mem: testMemCfg()}, 50_000)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("all-hit load/store loop: got %v, want %q", err, want)
	}
}

// TestMaxCyclesKeepsCompletedRuns pins the guard's precision: a program
// that halts within the budget is unaffected, and its cycle count is
// identical to an unbounded run.
func TestMaxCyclesKeepsCompletedRuns(t *testing.T) {
	p := prog(t, "countdown")
	free, err := Run(System{Cores: []CoreConfig{simCore("c", p)}, Mem: testMemCfg()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(System{Cores: []CoreConfig{simCore("c", p)}, Mem: testMemCfg()}, free.Cycles(0))
	if err != nil {
		t.Fatalf("run within exact budget must succeed: %v", err)
	}
	if tight.Cycles(0) != free.Cycles(0) {
		t.Fatalf("budget changed the result: %d vs %d", tight.Cycles(0), free.Cycles(0))
	}
}

// TestPerCoreL2Override covers the private-L2 override path: a core
// with a tiny private L2 view must observe more L2 misses than a core
// running the same program under the full geometry, and
// FromConfigPerCoreL2 must wire the views through.
func TestPerCoreL2Override(t *testing.T) {
	p := prog(t, "memwalk")
	small := cache.Config{Name: "L2p", Sets: 2, Ways: 1, LineBytes: 32, HitLatency: 4}
	sys := System{
		Cores: []CoreConfig{simCore("full", p), simCore("small", p)},
		L2:    ptr(l2()),
		Mem:   testMemCfg(),
	}
	sys.Cores[1].L2 = &small
	res, err := Run(sys, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[1].L2Misses <= res.Stats[0].L2Misses {
		t.Errorf("tiny private L2 view saw %d misses, full view %d — override not effective",
			res.Stats[1].L2Misses, res.Stats[0].L2Misses)
	}

	// The constructor plumbs per-core views; nil keeps the system L2.
	ssys := staticSys(0, true)
	tasks := []core.Task{{Name: "a", Prog: p}, {Name: "b", Prog: p}}
	built := FromConfigPerCoreL2(ssys, testMemCfg(), nil, tasks, []*cache.Config{nil, &small})
	if built.SharedL2 {
		t.Error("partitioned simulation must not share the L2")
	}
	if built.Cores[0].L2 != nil || built.Cores[1].L2 != &small {
		t.Errorf("per-core views not wired: %+v", built.Cores)
	}
	res2, err := Run(built, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats[1].L2Misses <= res2.Stats[0].L2Misses {
		t.Errorf("FromConfigPerCoreL2 override not effective: %d vs %d misses",
			res2.Stats[1].L2Misses, res2.Stats[0].L2Misses)
	}
}

// TestPrivatePathsWithoutArbiter: with no bus and private L2s, nothing
// is shared down to the memory device, so every co-running core takes
// exactly as long as it does alone.
func TestPrivatePathsWithoutArbiter(t *testing.T) {
	names := []string{"memwalk", "scalar", "memwalk", "nested"}
	var cores []CoreConfig
	for i, name := range names {
		cores = append(cores, simCore(fmt.Sprintf("c%d", i), prog(t, name)))
	}
	coRun, err := Run(System{Cores: cores, L2: ptr(l2()), Mem: testMemCfg()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, cc := range cores {
		alone, err := Run(System{Cores: []CoreConfig{cc}, L2: ptr(l2()), Mem: testMemCfg()}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if coRun.Cycles(i) != alone.Cycles(0) {
			t.Errorf("core %d (%s): %d cycles co-running, %d alone", i, names[i], coRun.Cycles(i), alone.Cycles(0))
		}
	}
}

// TestInitRegsSeedState: InitRegs must change architectural behavior
// exactly like pre-seeded registers in the reference executor, ignore
// the hardwired r0, and leave the zero-value config untouched.
func TestInitRegsSeedState(t *testing.T) {
	// Retired count is 2 + 3*r1: the loop body runs r1 times.
	p := isa.MustAssemble("inputloop", `
loop:   beq  r1, r0, done
        addi r1, r1, -1
        j    loop
done:   halt`)
	for _, r1 := range []int32{0, 7} {
		cc := simCore("c", p)
		// Entry 0 targets the hardwired zero register and must be ignored.
		cc.InitRegs = []int32{99, r1}
		res, err := Run(System{Cores: []CoreConfig{cc}, Mem: testMemCfg()}, 1_000_000)
		if err != nil {
			t.Fatalf("r1=%d: %v", r1, err)
		}
		want := uint64(2 + 3*r1)
		if res.Stats[0].Retired != want {
			t.Errorf("r1=%d: retired %d, want %d", r1, res.Stats[0].Retired, want)
		}
	}
	// Absent InitRegs is the all-zero seed.
	base, err := Run(System{Cores: []CoreConfig{simCore("c", p)}, Mem: testMemCfg()}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats[0].Retired != 2 {
		t.Errorf("zero-value config: retired %d, want 2", base.Stats[0].Retired)
	}
}

// TestWarmEstablishesInitialCacheState: pre-warmed lines must hit where
// a cold run misses, runs stay deterministic, and a warmed run of an
// in-order core never takes longer than the cold run.
func TestWarmEstablishesInitialCacheState(t *testing.T) {
	p := prog(t, "memwalk")
	cold, err := Run(System{Cores: []CoreConfig{simCore("m", p)}, Mem: testMemCfg()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cc := simCore("m", p)
	for a := uint32(0x8000); a < 0x8100; a += uint32(cc.L1D.LineBytes) {
		cc.WarmD = append(cc.WarmD, a)
	}
	for a := p.Base; a < p.End(); a += uint32(cc.L1I.LineBytes) {
		cc.WarmI = append(cc.WarmI, a)
	}
	warm, err := Run(System{Cores: []CoreConfig{cc}, Mem: testMemCfg()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats[0].L1DMisses >= cold.Stats[0].L1DMisses {
		t.Errorf("warmed L1D misses %d not below cold %d", warm.Stats[0].L1DMisses, cold.Stats[0].L1DMisses)
	}
	if warm.Stats[0].L1IMisses >= cold.Stats[0].L1IMisses {
		t.Errorf("warmed L1I misses %d not below cold %d", warm.Stats[0].L1IMisses, cold.Stats[0].L1IMisses)
	}
	if warm.Cycles(0) > cold.Cycles(0) {
		t.Errorf("warming slowed the run: warm %d > cold %d", warm.Cycles(0), cold.Cycles(0))
	}
	again, err := Run(System{Cores: []CoreConfig{cc}, Mem: testMemCfg()}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats[0] != warm.Stats[0] {
		t.Errorf("warmed run not deterministic:\n%+v\n%+v", warm.Stats[0], again.Stats[0])
	}
}

func TestStatspopulated(t *testing.T) {
	p := prog(t, "memwalk")
	sys := System{Cores: []CoreConfig{simCore("m", p)}, L2: ptr(l2()), Mem: testMemCfg()}
	res, err := Run(sys, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats[0]
	if s.L1DMisses == 0 || s.BusTrans == 0 {
		t.Errorf("expected misses and bus transactions: %+v", s)
	}
	if s.L2Hits+s.L2Misses != s.BusTrans {
		t.Errorf("L2 lookups %d != bus transactions %d", s.L2Hits+s.L2Misses, s.BusTrans)
	}
}

// TestFixedCostCores pins the fixed-cost core on a hand-timed run. Two
// cores share a round-robin port of latency 2 that every instruction
// requests (the Barre shape, Hold 2, Mem 10): core 0's load wins the
// cycle-0 tie and holds the port to cycle 2, so core 1's li is granted
// at 2, its halt at 4, and core 0's halt at 12, after the load's memory
// latency. A third core issues every 6 cycles from cycle 3 without ever
// touching the port (the PRET shape with no memory operation). Port
// waits are not bus transactions.
func TestFixedCostCores(t *testing.T) {
	fu := &FixedCost{AllPort: true, Hold: 2, Mem: 10}
	sys := System{
		Bus: arbiter.NewRoundRobin(3, 2),
		Cores: []CoreConfig{
			{Name: "ld", Prog: isa.MustAssemble("ld", "ld r2, 0(r0)\nhalt"), Fixed: fu},
			{Name: "li", Prog: isa.MustAssemble("li", "li r2, 1\nhalt"), Fixed: fu},
			{Name: "slot", Prog: isa.MustAssemble("slot", "li r2, 1\nli r3, 2\nhalt"),
				Fixed: &FixedCost{Start: 3, Issue: 6, Mem: 10}},
		},
	}
	res, err := Run(sys, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{14, 6, 21} {
		st := res.Stats[i]
		if st.Cycles != want || st.Retired == 0 || st.BusTrans != 0 || st.BusWaitMax != 0 {
			t.Errorf("core %d: %+v, want %d cycles and no bus transactions", i, st, want)
		}
	}
}

// TestFixedCostCycleLimit: the cycle budget stops a non-halting
// fixed-cost core whether or not it ever requests the port.
func TestFixedCostCycleLimit(t *testing.T) {
	spin := isa.MustAssemble("spin", "loop: j loop")
	for _, fixed := range []*FixedCost{{Issue: 6}, {AllPort: true, Hold: 2}} {
		sys := System{Bus: arbiter.NewRoundRobin(1, 2), Cores: []CoreConfig{{Name: "spin", Prog: spin, Fixed: fixed}}}
		if _, err := Run(sys, 5_000); err == nil || !strings.Contains(err.Error(), "exceeded 5000 cycles") {
			t.Errorf("%+v: err = %v, want the cycle budget", *fixed, err)
		}
	}
}

// TestTransactionsDoNotAllocate: a run allocates the same whatever the
// number of port or bus transactions it serves.
func TestTransactionsDoNotAllocate(t *testing.T) {
	loop := func(n int) *isa.Program {
		return isa.MustAssemble("memloop", fmt.Sprintf(`
        li   r1, %d
        li   r3, 0x8000
loop:   ld   r2, 0(r3)
        addi r3, r3, 64
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`, n))
	}
	systems := map[string]func(*isa.Program) System{
		"fixed": func(p *isa.Program) System {
			fu := &FixedCost{AllPort: true, Hold: 2, Mem: 10}
			return System{Bus: arbiter.NewRoundRobin(2, 2), Cores: []CoreConfig{
				{Name: "a", Prog: p, Fixed: fu}, {Name: "b", Prog: p, Fixed: fu},
			}}
		},
		"pipelined": func(p *isa.Program) System {
			return System{Bus: arbiter.NewRoundRobin(2, 40), Mem: testMemCfg(),
				Cores: []CoreConfig{simCore("a", p), simCore("b", p)}}
		},
	}
	for _, name := range []string{"fixed", "pipelined"} {
		allocs := func(n int) float64 {
			sys := systems[name](loop(n))
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(sys, 10_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(4), allocs(400); short != long {
			t.Errorf("%s: %v allocations at 4 iterations, %v at 400", name, short, long)
		}
	}
}
