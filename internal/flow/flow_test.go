package flow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/isa"
)

func build(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(isa.MustAssemble(t.Name(), src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConstPropStraightLine(t *testing.T) {
	g := build(t, "li r1, 7\naddi r2, r1, 3\nmul r3, r2, r1\nhalt")
	cp := PropagateConstants(g)
	out := cp.Out[g.Entry.ID]
	if v := out.get(isa.R3); v.Kind != Const || v.C != 70 {
		t.Errorf("r3 = %v, want 70", v)
	}
}

func TestConstPropDiamondJoin(t *testing.T) {
	g := build(t, `
        li  r5, 1
        beq r5, r0, elsep
        li  r1, 4
        li  r2, 9
        j   join
elsep:  li  r1, 4
        li  r2, 8
join:   add r3, r1, r2
        halt`)
	cp := PropagateConstants(g)
	var join *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && len(b.Preds) == 2 {
			join = b
		}
	}
	in := cp.In[join.ID]
	if v := in.get(isa.R1); v.Kind != Const || v.C != 4 {
		t.Errorf("r1 at join = %v, want const 4", v)
	}
	if v := in.get(isa.R2); v.Kind != Top {
		t.Errorf("r2 at join = %v, want ⊤", v)
	}
}

func TestConstPropLoopCarriedBecomesTop(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	cp := PropagateConstants(g)
	l := g.Loops[0]
	if v := cp.In[l.Header.ID].get(isa.R1); v.Kind != Top {
		t.Errorf("loop-carried r1 at header = %v, want ⊤", v)
	}
	if v := cp.AtLoopEntry(l).get(isa.R1); v.Kind != Const || v.C != 5 {
		t.Errorf("r1 at loop entry = %v, want const 5", v)
	}
}

func TestConstPropR0(t *testing.T) {
	g := build(t, "li r0, 9\nadd r1, r0, r0\nhalt")
	cp := PropagateConstants(g)
	if v := cp.Out[g.Entry.ID].get(isa.R1); v.Kind != Const || v.C != 0 {
		t.Errorf("r1 = %v, want 0 (r0 hardwired)", v)
	}
}

// headerExecutions runs the program and counts how often the instruction
// at the loop header's address is fetched — the ground truth for bounds.
func headerExecutions(t *testing.T, g *cfg.Graph, l *cfg.Loop) int {
	t.Helper()
	st := isa.NewState(g.Prog)
	hdr := g.Prog.Addr(l.Header.Start)
	n := 0
	st.Trace = func(e isa.TraceEvent) {
		if e.Kind == isa.TraceFetch && e.Addr == hdr {
			n++
		}
	}
	if _, err := st.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDeriveCountdownDoWhile(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	cp := PropagateConstants(g)
	reps, ind := DeriveBounds(g, cp)
	if !reps[0].Derived {
		t.Fatalf("not derived: %s", reps[0].Reason)
	}
	l := g.Loops[0]
	if l.Bound != 5 {
		t.Errorf("bound = %d, want 5", l.Bound)
	}
	if got := headerExecutions(t, g, l); got != l.Bound {
		t.Errorf("measured %d header executions, derived %d", got, l.Bound)
	}
	iv := ind[l]
	if iv.Reg != isa.R1 || iv.Init != 5 || iv.Step != -1 {
		t.Errorf("induction = %+v", iv)
	}
}

func TestDeriveWhileStyle(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   beq  r1, r0, done
        add  r2, r2, r1
        addi r1, r1, -1
        j    loop
done:   halt`)
	cp := PropagateConstants(g)
	reps, _ := DeriveBounds(g, cp)
	if !reps[0].Derived {
		t.Fatalf("not derived: %s", reps[0].Reason)
	}
	l := g.Loops[0]
	if l.Bound != 6 { // 5 body iterations + final failing test
		t.Errorf("bound = %d, want 6", l.Bound)
	}
	if got := headerExecutions(t, g, l); got != l.Bound {
		t.Errorf("measured %d, derived %d", got, l.Bound)
	}
}

func TestDeriveCountUpBLT(t *testing.T) {
	g := build(t, `
        li   r1, 0
        li   r3, 8
loop:   add  r2, r2, r1
        addi r1, r1, 1
        blt  r1, r3, loop
        halt`)
	cp := PropagateConstants(g)
	reps, _ := DeriveBounds(g, cp)
	if !reps[0].Derived {
		t.Fatalf("not derived: %s", reps[0].Reason)
	}
	l := g.Loops[0]
	if got := headerExecutions(t, g, l); got != l.Bound {
		t.Errorf("measured %d, derived %d", got, l.Bound)
	}
	if l.Bound != 8 {
		t.Errorf("bound = %d, want 8", l.Bound)
	}
}

func TestDeriveNestedLoops(t *testing.T) {
	g := build(t, `
        li   r1, 3
outer:  li   r2, 4
inner:  add  r4, r4, r2
        addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`)
	cp := PropagateConstants(g)
	reps, _ := DeriveBounds(g, cp)
	for _, r := range reps {
		if !r.Derived {
			t.Fatalf("loop %v not derived: %s", r.Loop, r.Reason)
		}
	}
	if g.Loops[0].Bound != 3 || g.Loops[1].Bound != 4 {
		t.Errorf("bounds = %d, %d want 3, 4", g.Loops[0].Bound, g.Loops[1].Bound)
	}
	for _, l := range g.Loops {
		if l.Depth == 1 {
			if got := headerExecutions(t, g, l); got != l.Bound {
				t.Errorf("outer measured %d, derived %d", got, l.Bound)
			}
		}
	}
}

func TestDeriveDataDependentFails(t *testing.T) {
	g := build(t, `
        li   r3, 0x8000
        ld   r1, 0(r3)
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	cp := PropagateConstants(g)
	reps, _ := DeriveBounds(g, cp)
	if reps[0].Derived {
		t.Error("data-dependent bound should not derive")
	}
	if g.Loops[0].Bound != -1 {
		t.Errorf("bound = %d, want -1", g.Loops[0].Bound)
	}
}

func TestDeriveNonTerminatingPatternFails(t *testing.T) {
	// Steps away from the test constant: bne never fails.
	g := build(t, `
        li   r1, 5
loop:   addi r1, r1, 1
        bne  r1, r0, loop
        halt`)
	cp := PropagateConstants(g)
	reps, _ := DeriveBounds(g, cp)
	// Either underivable or a huge bound capped out — must not "derive" a
	// small wrong bound. r1 wraps around through 2^32 values; maxTrip
	// caps the simulation.
	if reps[0].Derived {
		t.Errorf("wrap-around loop derived bound %d", g.Loops[0].Bound)
	}
}

func TestFactsApplyAndOverride(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	cp := PropagateConstants(g)
	DeriveBounds(g, cp)
	f := NewFacts().Bound("loop", 99)
	if err := f.Apply(g); err != nil {
		t.Fatal(err)
	}
	if g.Loops[0].Bound != 99 {
		t.Errorf("bound = %d, want annotation override 99", g.Loops[0].Bound)
	}
}

func TestFactsErrors(t *testing.T) {
	g := build(t, `
        li   r1, 5
loop:   addi r1, r1, -1
        bne  r1, r0, loop
done:   halt`)
	if err := NewFacts().Bound("nolabel", 3).Apply(g); err == nil {
		t.Error("unknown label accepted")
	}
	if err := NewFacts().Bound("done", 3).Apply(g); err == nil {
		t.Error("non-header label accepted")
	}
}

func TestCheckBounded(t *testing.T) {
	g := build(t, `
        li   r3, 0x8000
        ld   r1, 0(r3)
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if err := CheckBounded(g); err == nil {
		t.Error("unbounded loop passed CheckBounded")
	}
	g.Loops[0].Bound = 10
	if err := CheckBounded(g); err != nil {
		t.Errorf("bounded graph rejected: %v", err)
	}
	g.Loops[0].Bound = 0
	if err := CheckBounded(g); err == nil {
		t.Error("zero bound accepted")
	}
}

func TestBoundAllPipeline(t *testing.T) {
	g := build(t, `
        li   r1, 4
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	if g.Loops[0].Bound != 4 {
		t.Errorf("bound = %d, want 4", g.Loops[0].Bound)
	}
}

func TestAnalyzeAddrsExact(t *testing.T) {
	g := build(t, `
        li r1, 0x8000
        ld r2, 8(r1)
        st r2, 12(r1)
        halt`)
	cp := PropagateConstants(g)
	addrs := AnalyzeAddrs(g, cp, nil)
	found := 0
	for _, r := range addrs {
		if !r.Exact() {
			t.Errorf("range %+v should be exact", r)
		}
		if r.Lo == 0x8008 || r.Lo == 0x800c {
			found++
		}
	}
	if found != 2 {
		t.Errorf("found %d expected refs, want 2", found)
	}
}

func TestAnalyzeAddrsInductionWalk(t *testing.T) {
	g := build(t, `
        li   r1, 0x8000
        li   r3, 0x8020
loop:   ld   r2, 0(r1)
        add  r4, r4, r2
        addi r1, r1, 4
        bne  r1, r3, loop
        halt`)
	cp := PropagateConstants(g)
	_, ind := DeriveBounds(g, cp)
	if g.Loops[0].Bound != 8 {
		t.Fatalf("bound = %d, want 8", g.Loops[0].Bound)
	}
	addrs := AnalyzeAddrs(g, cp, ind)
	var walk *AddrRange
	for k, r := range addrs {
		k := k
		_ = k
		r := r
		if r.Known && r.Lo != r.Hi {
			walk = &r
		}
	}
	if walk == nil {
		t.Fatal("no strided range derived for array walk")
	}
	if walk.Lo != 0x8000 || walk.Hi < 0x801c || walk.Stride != 4 {
		t.Errorf("range = %+v, want [0x8000, >=0x801c] stride 4", *walk)
	}
	// The range must cover every address the program actually touches.
	touched := map[uint32]bool{}
	st := isa.NewState(g.Prog)
	st.Trace = func(e isa.TraceEvent) {
		if e.Kind == isa.TraceLoad {
			touched[e.Addr] = true
		}
	}
	if _, err := st.Run(100000); err != nil {
		t.Fatal(err)
	}
	for a := range touched {
		if a < walk.Lo || a > walk.Hi {
			t.Errorf("touched 0x%x outside derived range [0x%x,0x%x]", a, walk.Lo, walk.Hi)
		}
	}
}

func TestAnalyzeAddrsUnknown(t *testing.T) {
	g := build(t, `
        li r3, 0x8000
        ld r1, 0(r3)
        ld r2, 0(r1)
        halt`)
	cp := PropagateConstants(g)
	addrs := AnalyzeAddrs(g, cp, nil)
	unknown := 0
	for _, r := range addrs {
		if !r.Known {
			unknown++
		}
	}
	if unknown != 1 {
		t.Errorf("unknown ranges = %d, want 1 (the data-dependent load)", unknown)
	}
}

func TestAddrRangeAddrs(t *testing.T) {
	r := AddrRange{Known: true, Lo: 0x100, Hi: 0x10c, Stride: 4}
	got := r.Addrs()
	if len(got) != 4 || got[0] != 0x100 || got[3] != 0x10c {
		t.Errorf("Addrs = %#v", got)
	}
	if (AddrRange{}).Addrs() != nil {
		t.Error("unknown range should enumerate nothing")
	}
}

// TestDeriveBoundsRandomized cross-validates derived bounds against
// executed header counts over randomized counting loops.
func TestDeriveBoundsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		step := int32(1 + rng.Intn(4))
		n := 1 + rng.Intn(49)
		init := int32(rng.Intn(100) - 50)
		k := init + step*int32(n)
		dir := rng.Intn(3)
		var src string
		switch dir {
		case 0: // count up, bne
			src = fmt.Sprintf(`
        li   r1, %d
        li   r3, %d
loop:   add  r2, r2, r1
        addi r1, r1, %d
        bne  r1, r3, loop
        halt`, init, k, step)
		case 1: // count up, blt
			src = fmt.Sprintf(`
        li   r1, %d
        li   r3, %d
loop:   add  r2, r2, r1
        addi r1, r1, %d
        blt  r1, r3, loop
        halt`, init, k, step)
		default: // count down to zero-crossing with bge
			src = fmt.Sprintf(`
        li   r1, %d
loop:   add  r2, r2, r1
        addi r1, r1, -%d
        bge  r1, r0, loop
        halt`, init, step)
		}
		g, err := cfg.Build(isa.MustAssemble("rnd", src))
		if err != nil {
			t.Fatal(err)
		}
		cp := PropagateConstants(g)
		reps, _ := DeriveBounds(g, cp)
		if !reps[0].Derived {
			// count-down from negative init exits immediately; still fine
			// if derived, but underivable is only acceptable if we can't
			// run it either. It always terminates, so require derivation.
			t.Fatalf("trial %d: underived (%s)\n%s", trial, reps[0].Reason, src)
		}
		want := headerExecutions(t, g, g.Loops[0])
		if g.Loops[0].Bound != want {
			t.Fatalf("trial %d: derived %d, measured %d\n%s", trial, g.Loops[0].Bound, want, src)
		}
	}
}

func TestValString(t *testing.T) {
	if !strings.Contains(ConstVal(3).String(), "3") {
		t.Error("ConstVal render")
	}
	if TopVal().String() != "⊤" || (Val{}).String() != "⊥" {
		t.Error("lattice extremes render")
	}
}

// TestFingerprintLabelsInjective: bound labels and constraint names are
// length-prefixed, so no spelling — "=", ";", "|", ":" or the empty
// label — can make two different annotation sets share a fingerprint.
func TestFingerprintLabelsInjective(t *testing.T) {
	bounds := func(kv ...any) *Facts {
		f := NewFacts()
		for i := 0; i < len(kv); i += 2 {
			f.Bound(kv[i].(string), kv[i+1].(int))
		}
		return f
	}
	named := func(names ...string) *Facts {
		f := NewFacts()
		for _, n := range names {
			f.Constraints = append(f.Constraints, Constraint{Name: n, Terms: []Term{{Coef: 1}}, Rel: RelLE, RHS: 1})
		}
		return f
	}
	sets := []*Facts{
		NewFacts(),
		bounds("a=1;b:c", 2),
		bounds("a", 1, "c", 2),
		bounds("", 1, "a", 2),
		bounds("=1;b:a", 2),
		bounds("", 3),
		bounds("a|b", 1),
		bounds("a", 1, "|b", 1),
		bounds("a;", 1),
		bounds("a", 1, ";", 1),
		named("n,0,1|1;c:m"),
		named("n", "m"),
		named(""),
		named("|1"),
	}
	seen := map[string]int{}
	for i, f := range sets {
		fp := f.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("annotation sets %d and %d share fingerprint %q", j, i, fp)
		}
		seen[fp] = i
	}
}
