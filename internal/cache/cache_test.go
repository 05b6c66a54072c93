package cache

import (
	"math/rand"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/isa"
)

func cfg4x2x16(hit, miss int) Config {
	return Config{Name: "t", Sets: 4, Ways: 2, LineBytes: 16, HitLatency: hit, MissPenalty: miss}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 1, LineBytes: 16},
		{Sets: 4, Ways: 0, LineBytes: 16},
		{Sets: 4, Ways: 1, LineBytes: 12},
		{Sets: 0, Ways: 1, LineBytes: 16},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("accepted invalid config %+v", c)
		}
	}
	if err := cfg4x2x16(1, 10).Validate(); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestConfigMapping(t *testing.T) {
	c := cfg4x2x16(1, 10)
	if c.LineOf(0x100) != 0x10 || c.LineOf(0x10f) != 0x10 || c.LineOf(0x110) != 0x11 {
		t.Error("LineOf wrong")
	}
	if c.SetOf(0x10) != 0 || c.SetOf(0x11) != 1 || c.SetOf(0x17) != 3 {
		t.Error("SetOf wrong")
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(Config{Name: "l", Sets: 1, Ways: 2, LineBytes: 16})
	if c.Access(0x00) { // A miss
		t.Error("cold access hit")
	}
	if !c.Access(0x04) { // same line hit
		t.Error("same-line access missed")
	}
	c.Access(0x10) // B miss; cache = [B, A]
	c.Access(0x00) // A hit;  cache = [A, B]
	c.Access(0x20) // C miss; evicts B (LRU)
	if c.Contains(0x10) {
		t.Error("B should have been evicted")
	}
	if !c.Contains(0x00) || !c.Contains(0x20) {
		t.Error("A and C should be resident")
	}
	if c.Hits != 2 || c.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 2/3", c.Hits, c.Misses)
	}
}

// TestACSSoundnessRandom drives concrete LRU and abstract Must/May states
// over random access sequences and checks the abstraction invariants
// after every access:
//
//	line ∈ must  ⇒ line cached and concrete age ≤ must age
//	line cached  ⇒ line ∈ may and concrete age ≥ may age
func TestACSSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		geom := Config{Name: "r", Sets: 1 << rng.Intn(3), Ways: 1 + rng.Intn(3), LineBytes: 16}
		conc := NewLRU(geom)
		universe := 2 + rng.Intn(10)
		idx := NewIndex(geom, universeLines(universe))
		must := NewACS(idx, Must)
		may := NewACS(idx, May)
		for step := 0; step < 200; step++ {
			l := LineID(rng.Intn(universe))
			conc.AccessLine(l)
			must.Access(l)
			may.Access(l)
			checkACSInvariants(t, geom, conc, must, may)
			if t.Failed() {
				t.Fatalf("trial %d step %d geom %+v", trial, step, geom)
			}
		}
	}
}

// universeLines returns lines 0..n-1, the address universe of the random
// soundness drivers.
func universeLines(n int) []LineID {
	out := make([]LineID, n)
	for i := range out {
		out[i] = LineID(i)
	}
	return out
}

// concreteAge returns the LRU stack position of l, or -1.
func concreteAge(c *LRU, geom Config, l LineID) int {
	for i, x := range c.sets[geom.SetOf(l)] {
		if x == l {
			return i
		}
	}
	return -1
}

func checkACSInvariants(t *testing.T, geom Config, conc *LRU, must, may *ACS) {
	t.Helper()
	idx := must.idx
	for slot := int32(0); slot < int32(idx.NumSlots()); slot++ {
		l := idx.LineAt(slot)
		if must.Contains(l) {
			ca := concreteAge(conc, geom, l)
			if ca < 0 {
				t.Errorf("line %d in must but not cached", l)
			} else if ca > must.Age(l) {
				t.Errorf("line %d concrete age %d > must age %d", l, ca, must.Age(l))
			}
		}
	}
	for s := 0; s < geom.Sets; s++ {
		for _, l := range conc.sets[s] {
			if !may.Contains(l) {
				if !may.Poisoned {
					t.Errorf("cached line %d not in may", l)
				}
				continue
			}
			if ca := concreteAge(conc, geom, l); ca < may.Age(l) {
				t.Errorf("line %d concrete age %d < may age %d", l, ca, may.Age(l))
			}
		}
	}
}

// TestACSJoinSoundness: join of two abstract states must be sound for
// both concrete states it merges.
func TestACSJoinSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		geom := Config{Name: "j", Sets: 2, Ways: 2, LineBytes: 16}
		concA, concB := NewLRU(geom), NewLRU(geom)
		idx := NewIndex(geom, universeLines(6))
		mustA, mustB := NewACS(idx, Must), NewACS(idx, Must)
		mayA, mayB := NewACS(idx, May), NewACS(idx, May)
		for i := 0; i < 30; i++ {
			la, lb := LineID(rng.Intn(6)), LineID(rng.Intn(6))
			concA.AccessLine(la)
			mustA.Access(la)
			mayA.Access(la)
			concB.AccessLine(lb)
			mustB.Access(lb)
			mayB.Access(lb)
		}
		mustJ := mustA.Join(mustB)
		mayJ := mayA.Join(mayB)
		for _, conc := range []*LRU{concA, concB} {
			checkACSInvariants(t, geom, conc, mustJ, mayJ)
		}
		if t.Failed() {
			t.Fatalf("trial %d", trial)
		}
	}
}

func TestACSAccessUnknownPoisonsMay(t *testing.T) {
	geom := cfg4x2x16(1, 10)
	idx := NewIndex(geom, []LineID{5})
	may := NewACS(idx, May)
	may.Access(5)
	may.AccessUnknown()
	if !may.Poisoned {
		t.Error("unknown access must poison may state")
	}
	must := NewACS(idx, Must)
	must.Access(5)
	age0 := must.Age(5)
	must.AccessUnknown()
	if must.Age(5) != age0+1 {
		t.Errorf("unknown access should age must lines: %d -> %d", age0, must.Age(5))
	}
}

func TestACSHelpers(t *testing.T) {
	geom := Config{Name: "h", Sets: 2, Ways: 2, LineBytes: 16}
	idx := NewIndex(geom, universeLines(3))
	a := NewACS(idx, Must)
	a.Access(0) // set 0
	a.Access(2) // set 0 (2 % 2 == 0)
	a.Access(1) // set 1
	a.ageSetRange(0, 1)
	if a.Contains(2) && a.Age(2) != 1 {
		t.Errorf("age of line 2 = %d, want 1", a.Age(2))
	}
	if a.Contains(0) {
		t.Error("line 0 (age 1) should have aged out of 2 ways")
	}
	if a.Age(1) != 0 {
		t.Error("ageSetRange(0) must not touch set 1")
	}
}

// --- trace-based soundness of classification -------------------------------

// traceCheck runs the program, feeding fetches (and optionally data
// accesses) through concrete LRU caches, and validates every
// classification claim of the analysis results. Programs must be
// call-free so instruction indexes map uniquely to blocks.
type traceCheck struct {
	t       *testing.T
	g       *cfg.Graph
	blockOf []*cfg.Block // by instruction index
	dataSeq []int        // by instruction index: seq in data stream, or -1

	hits, misses map[RefID]int
	entries      map[*cfg.Loop]int

	iLRU, dLRU *LRU
	prevBlock  *cfg.Block
}

func newTraceCheck(t *testing.T, g *cfg.Graph, iGeom, dGeom *Config) *traceCheck {
	tc := &traceCheck{
		t:       t,
		g:       g,
		blockOf: make([]*cfg.Block, len(g.Prog.Insts)),
		dataSeq: make([]int, len(g.Prog.Insts)),
		hits:    map[RefID]int{},
		misses:  map[RefID]int{},
		entries: map[*cfg.Loop]int{},
	}
	for i := range tc.dataSeq {
		tc.dataSeq[i] = -1
	}
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		seq := 0
		for i := b.Start; i < b.End; i++ {
			if tc.blockOf[i] != nil {
				t.Fatalf("program has calls; trace checking needs unique block per inst")
			}
			tc.blockOf[i] = b
			if g.Prog.Insts[i].IsMem() {
				tc.dataSeq[i] = seq
				seq++
			}
		}
	}
	if iGeom != nil {
		tc.iLRU = NewLRU(*iGeom)
	}
	if dGeom != nil {
		tc.dLRU = NewLRU(*dGeom)
	}
	return tc
}

func (tc *traceCheck) run() {
	st := isa.NewState(tc.g.Prog)
	st.Trace = func(e isa.TraceEvent) {
		switch e.Kind {
		case isa.TraceFetch:
			idx := tc.g.Prog.Index(e.Addr)
			b := tc.blockOf[idx]
			// Loop entries: first instruction of a header reached from
			// outside the loop.
			if idx == b.Start {
				for l := b.Loop(); l != nil; l = l.Parent {
					if l.Header == b && (tc.prevBlock == nil || !l.Contains(tc.prevBlock)) {
						tc.entries[l]++
					}
				}
				tc.prevBlock = b
			}
			if tc.iLRU != nil {
				id := RefID{Block: b.ID, Seq: idx - b.Start}
				if tc.iLRU.Access(e.Addr) {
					tc.hits[id]++
				} else {
					tc.misses[id]++
				}
			}
		case isa.TraceLoad, isa.TraceStore:
			if tc.dLRU == nil {
				return
			}
			idx := tc.g.Prog.Index(st.PC)
			b := tc.blockOf[idx]
			id := RefID{Block: b.ID, Seq: tc.dataSeq[idx]}
			if tc.dLRU.Access(e.Addr) {
				tc.hits[id]++
			} else {
				tc.misses[id]++
			}
		}
	}
	if _, err := st.Run(10_000_000); err != nil {
		tc.t.Fatal(err)
	}
}

// validate checks every classification claim against observed behaviour.
func (tc *traceCheck) validate(res *Result, label string) {
	tc.t.Helper()
	for id, rc := range res.Classes {
		switch rc.Class {
		case AlwaysHit:
			if tc.misses[id] > 0 {
				tc.t.Errorf("%s: ref %+v classified AH but missed %d times", label, id, tc.misses[id])
			}
		case AlwaysMiss:
			if tc.hits[id] > 0 {
				tc.t.Errorf("%s: ref %+v classified AM but hit %d times", label, id, tc.hits[id])
			}
		case Persistent:
			if rc.Scope == nil {
				tc.t.Errorf("%s: ref %+v PS without scope", label, id)
				continue
			}
			if tc.misses[id] > tc.entries[rc.Scope] {
				tc.t.Errorf("%s: ref %+v PS misses %d > scope entries %d",
					label, id, tc.misses[id], tc.entries[rc.Scope])
			}
		}
	}
}

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(isa.MustAssemble(t.Name(), src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestICacheLoopClassification(t *testing.T) {
	// Pad so the loop starts on a fresh cache line (16B = 4 insts/line):
	// its first iteration misses, later iterations hit -> PERSISTENT.
	g := buildGraph(t, `
        li   r1, 20
        nop
        nop
        nop
loop:   add  r2, r2, r1
        add  r3, r3, r2
        add  r4, r4, r3
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	geom := Config{Name: "I", Sets: 8, Ways: 2, LineBytes: 16}
	res := MustAnalyze(g, FetchStream(g), geom)
	counts := res.CountClasses()
	// The loop body fits the cache: the first ref of each loop line is PS
	// (one miss on the first iteration), the rest are AH.
	if counts[Persistent] < 2 {
		t.Errorf("expected >=2 persistent refs in loop, got %v", counts)
	}
	if counts[AlwaysHit] == 0 {
		t.Errorf("expected AH refs within loop lines, got %v", counts)
	}
	if counts[NotClassified] > 0 {
		t.Errorf("nothing should be NC in a fitting loop: %v", counts)
	}
	tc := newTraceCheck(t, g, &geom, nil)
	tc.run()
	tc.validate(res, "icache-loop")
}

func TestICacheTinyCacheThrashing(t *testing.T) {
	// One-set, one-way cache: blocks conflict; nothing inside the loop may
	// be classified AH unless it shares a line with its predecessor.
	g := buildGraph(t, `
        li   r1, 9
loop:   add  r2, r2, r1
        add  r3, r3, r2
        add  r4, r4, r3
        add  r5, r5, r4
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	geom := Config{Name: "I", Sets: 1, Ways: 1, LineBytes: 8} // 2 insts per line
	res := MustAnalyze(g, FetchStream(g), geom)
	tc := newTraceCheck(t, g, &geom, nil)
	tc.run()
	tc.validate(res, "icache-thrash")
}

func TestDCacheArrayWalk(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 0x8000
        li   r3, 0x8080
loop:   ld   r2, 0(r1)
        add  r4, r4, r2
        addi r1, r1, 4
        bne  r1, r3, loop
        halt`)
	cp := flow.PropagateConstants(g)
	_, ind := flow.DeriveBounds(g, cp)
	addrs := flow.AnalyzeAddrs(g, cp, ind)
	geom := Config{Name: "D", Sets: 4, Ways: 2, LineBytes: 16}
	ds := DataStream(g, addrs)
	res := MustAnalyze(g, ds, geom)
	tc := newTraceCheck(t, g, nil, &geom)
	tc.run()
	tc.validate(res, "dcache-walk")
	// The walk covers 128 bytes = 8 lines > capacity in relevant sets;
	// the ref is imprecise, so it must be NC.
	nc := res.CountClasses()[NotClassified]
	if nc != 1 {
		t.Errorf("array-walk load should be the single NC ref, got %v", res.CountClasses())
	}
}

func TestDCacheScalarReuse(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 0x8000
        li   r5, 10
loop:   ld   r2, 0(r1)
        addi r2, r2, 1
        st   r2, 0(r1)
        addi r5, r5, -1
        bne  r5, r0, loop
        halt`)
	cp := flow.PropagateConstants(g)
	_, ind := flow.DeriveBounds(g, cp)
	addrs := flow.AnalyzeAddrs(g, cp, ind)
	geom := Config{Name: "D", Sets: 4, Ways: 2, LineBytes: 16}
	res := MustAnalyze(g, DataStream(g, addrs), geom)
	tc := newTraceCheck(t, g, nil, &geom)
	tc.run()
	tc.validate(res, "dcache-scalar")
	// The store always hits (the load just fetched the line).
	counts := res.CountClasses()
	if counts[AlwaysHit] == 0 {
		t.Errorf("expected AH store, got %v", counts)
	}
}

func TestDirectMappedConflictAM(t *testing.T) {
	// Two addresses mapping to the same set of a direct-mapped cache,
	// alternately accessed in a loop: both always miss.
	g := buildGraph(t, `
        li   r1, 0x8000
        li   r2, 0x8040    ; same set (64B apart, 4 sets x 16B lines)
        li   r5, 6
loop:   ld   r3, 0(r1)
        ld   r4, 0(r2)
        addi r5, r5, -1
        bne  r5, r0, loop
        halt`)
	cp := flow.PropagateConstants(g)
	_, ind := flow.DeriveBounds(g, cp)
	addrs := flow.AnalyzeAddrs(g, cp, ind)
	geom := Config{Name: "D", Sets: 4, Ways: 1, LineBytes: 16}
	res := MustAnalyze(g, DataStream(g, addrs), geom)
	tc := newTraceCheck(t, g, nil, &geom)
	tc.run()
	tc.validate(res, "dm-conflict")
	if am := res.CountClasses()[AlwaysMiss]; am != 2 {
		t.Errorf("conflicting loads should both be AM, got %v", res.CountClasses())
	}
}

func TestTwoLevelCACAndClasses(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 30
loop:   add  r2, r2, r1
        add  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	l1 := Config{Name: "L1", Sets: 2, Ways: 1, LineBytes: 8}
	l2 := Config{Name: "L2", Sets: 16, Ways: 4, LineBytes: 16}
	res, err := analyzeTwoLevel(g, FetchStream(g), l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	// Every ref has a CAC; AH L1 refs must be Never.
	for id, rc := range res.L1.Classes {
		cac := res.CAC[id]
		if rc.Class == AlwaysHit && cac != Never {
			t.Errorf("ref %+v L1 AH but CAC %v", id, cac)
		}
		if rc.Class == AlwaysMiss && cac != Always {
			t.Errorf("ref %+v L1 AM but CAC %v", id, cac)
		}
	}
	// The loop fits L2 easily: refs that reach L2 are PS or AH there.
	for id, rc := range res.L2.Classes {
		if res.CAC[id] == Never {
			continue
		}
		if rc.Class == NotClassified {
			t.Errorf("L2 ref %+v NC in fitting loop: L2 classes %v", id, res.L2.CountClasses())
		}
	}
}

func TestTwoLevelL2MissBoundedByL1(t *testing.T) {
	// Simulate the two-level hierarchy on a trace and verify AH-at-L2
	// claims: an L1 miss for a ref classified AH at L2 must hit in L2.
	g := buildGraph(t, `
        li   r1, 12
loop:   add  r2, r2, r1
        add  r3, r3, r2
        add  r4, r4, r3
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	l1 := Config{Name: "L1", Sets: 1, Ways: 1, LineBytes: 8}
	l2 := Config{Name: "L2", Sets: 8, Ways: 4, LineBytes: 16}
	res, err := analyzeTwoLevel(g, FetchStream(g), l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := NewLRU(l1), NewLRU(l2)
	blockOf := make([]*cfg.Block, len(g.Prog.Insts))
	for _, b := range g.Blocks {
		if !b.IsExit() {
			for i := b.Start; i < b.End; i++ {
				blockOf[i] = b
			}
		}
	}
	bad := 0
	st := isa.NewState(g.Prog)
	st.Trace = func(e isa.TraceEvent) {
		if e.Kind != isa.TraceFetch {
			return
		}
		idx := g.Prog.Index(e.Addr)
		b := blockOf[idx]
		id := RefID{Block: b.ID, Seq: idx - b.Start}
		if !c1.Access(e.Addr) {
			hit2 := c2.Access(e.Addr)
			if res.L2.Classes[id].Class == AlwaysHit && res.CAC[id] != Never && !hit2 {
				bad++
			}
		}
	}
	if _, err := st.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d L2-AH claims violated on trace", bad)
	}
}

// TestClassificationSoundnessRandomLoops fuzzes loop nests with varying
// cache geometry and validates all claims on the trace.
func TestClassificationSoundnessRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		// Random two-level loop nest with some straight-line padding.
		inner := 1 + rng.Intn(6)
		outer := 1 + rng.Intn(5)
		pad := rng.Intn(5)
		src := "        li r1, " + itoa(outer) + "\n"
		src += "outer:  li r2, " + itoa(inner) + "\n"
		for i := 0; i < pad; i++ {
			src += "        add r4, r4, r2\n"
		}
		src += "inner:  add r3, r3, r2\n"
		src += "        addi r2, r2, -1\n"
		src += "        bne r2, r0, inner\n"
		src += "        addi r1, r1, -1\n"
		src += "        bne r1, r0, outer\n"
		src += "        halt\n"
		g, err := cfg.Build(isa.MustAssemble("fuzz", src))
		if err != nil {
			t.Fatal(err)
		}
		geom := Config{
			Name:      "I",
			Sets:      1 << rng.Intn(4),
			Ways:      1 + rng.Intn(3),
			LineBytes: 8 << rng.Intn(2),
		}
		res := MustAnalyze(g, FetchStream(g), geom)
		tc := newTraceCheck(t, g, &geom, nil)
		tc.run()
		tc.validate(res, "fuzz")
		if t.Failed() {
			t.Fatalf("trial %d geom %+v\n%s", trial, geom, src)
		}
	}
}

// TestTouchedLinesPerSet: TouchedLines reports, per set, exactly the
// distinct lines of the task's references, each in its own set and
// ascending.
func TestTouchedLinesPerSet(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 20
loop:   add  r2, r2, r1
        add  r3, r3, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	geom := Config{Name: "T", Sets: 4, Ways: 2, LineBytes: 8}
	stream := FetchStream(g)
	res := MustAnalyze(g, stream, geom)
	lines, ok := res.TouchedLines()
	if !ok {
		t.Fatal("fetch stream has no unknown refs; TouchedLines must be precise")
	}
	if len(lines) != geom.Sets {
		t.Fatalf("%d per-set entries, want %d", len(lines), geom.Sets)
	}
	want := map[LineID]bool{}
	for _, b := range g.Blocks {
		for _, r := range stream.Refs[b.ID] {
			ls, _ := geom.RefLines(r)
			for _, ln := range ls {
				want[ln] = true
			}
		}
	}
	total := 0
	for s, ls := range lines {
		for i, ln := range ls {
			if geom.SetOf(ln) != s {
				t.Errorf("line %d reported in set %d, maps to %d", ln, s, geom.SetOf(ln))
			}
			if i > 0 && ls[i-1] >= ln {
				t.Errorf("set %d: lines not strictly ascending: %v", s, ls)
			}
			if !want[ln] {
				t.Errorf("set %d: line %d is not referenced", s, ln)
			}
		}
		total += len(ls)
	}
	if total != len(want) || total == 0 {
		t.Errorf("%d touched lines, want the %d referenced ones", total, len(want))
	}
}

// TestDataClassificationSoundnessRandom fuzzes data reference streams —
// random mixes of scalar reuse and array walks with varying strides —
// and validates every classification claim against the concrete LRU on
// the executed trace.
func TestDataClassificationSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		iters := 2 + rng.Intn(8)
		stride := 4 << rng.Intn(3)
		span := stride * (1 + rng.Intn(12))
		base := 0x8000 + 0x100*rng.Intn(4)
		scalar := 0x9000 + 16*rng.Intn(4)
		src := "        li   r1, " + itoa(base) + "\n"
		src += "        li   r3, " + itoa(base+span) + "\n"
		src += "        li   r6, " + itoa(scalar) + "\n"
		src += "        li   r5, " + itoa(iters) + "\n"
		src += "outer:  li   r1, " + itoa(base) + "\n"
		src += "inner:  ld   r2, 0(r1)\n"
		src += "        ld   r4, 0(r6)\n"
		src += "        st   r4, 0(r6)\n"
		src += "        addi r1, r1, " + itoa(stride) + "\n"
		src += "        bne  r1, r3, inner\n"
		src += "        addi r5, r5, -1\n"
		src += "        bne  r5, r0, outer\n"
		src += "        halt\n"
		g := buildGraph(t, src)
		cp := flow.PropagateConstants(g)
		_, ind := flow.DeriveBounds(g, cp)
		addrs := flow.AnalyzeAddrs(g, cp, ind)
		geom := Config{
			Name:      "D",
			Sets:      1 << rng.Intn(4),
			Ways:      1 + rng.Intn(3),
			LineBytes: 8 << rng.Intn(2),
		}
		res := MustAnalyze(g, DataStream(g, addrs), geom)
		tc := newTraceCheck(t, g, nil, &geom)
		tc.run()
		tc.validate(res, "data-fuzz")
		if t.Failed() {
			t.Fatalf("trial %d geom %+v\n%s", trial, geom, src)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// walkClasses tallies r.Classes by walking the map, the reference the
// maintained tally must match.
func walkClasses(r *Result) ClassCounts {
	var c ClassCounts
	//paralint:unordered commutative tally; each reference increments one counter
	for _, rc := range r.Classes {
		c[rc.Class]++
	}
	return c
}

// TestClassCountsTrackClasses: the class tally CountClasses returns
// equals a walk of Classes after Analyze, AnalyzeWithCAC, Clone and
// ReclassifyShift, and reclassifying a clone leaves the original's
// tally alone.
func TestClassCountsTrackClasses(t *testing.T) {
	check := func(label string, r *Result) {
		t.Helper()
		if got, want := r.CountClasses(), walkClasses(r); got != want {
			t.Fatalf("%s: tally %v, walk of Classes %v", label, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomLoopNest(t, rng)
		l1 := Config{Name: "L1", Sets: 2, Ways: 1, LineBytes: 8}
		l2 := Config{Name: "L2", Sets: 4, Ways: 2, LineBytes: 16}
		res, err := analyzeTwoLevel(g, FetchStream(g), l1, l2)
		if err != nil {
			t.Fatal(err)
		}
		check("Analyze", res.L1)
		check("AnalyzeWithCAC", res.L2)
		before := res.L2.CountClasses()
		for _, n := range []int{1, l2.Ways} {
			c := res.L2.Clone(nil)
			check("Clone", c)
			shift := make([]int, l2.Sets)
			for s := range shift {
				shift[s] = n
			}
			c.ReclassifyShift(shift)
			check("ReclassifyShift", c)
			c.ReclassifyShift(shift)
			check("second ReclassifyShift", c)
			check("Clone of a reclassified result", c.Clone(nil))
			if got := res.L2.CountClasses(); got != before {
				t.Fatalf("reclassifying a clone moved the original's tally from %v to %v", before, got)
			}
		}
	}
}
