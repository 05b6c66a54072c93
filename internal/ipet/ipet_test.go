package ipet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/isa"
)

func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(isa.MustAssemble(t.Name(), src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// unitCosts assigns cost = instruction count to every block.
func unitCosts(g *cfg.Graph) map[cfg.BlockID]int {
	m := map[cfg.BlockID]int{}
	for _, b := range g.Blocks {
		m[b.ID] = b.Len()
	}
	return m
}

func TestStraightLine(t *testing.T) {
	g := buildGraph(t, "li r1, 1\nadd r2, r1, r1\nhalt")
	res, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != 3 {
		t.Errorf("WCET = %d, want 3", res.WCET)
	}
	for _, b := range g.Blocks {
		if res.BlockCounts[b.ID] != 1 {
			t.Errorf("block %v count = %d, want 1", b, res.BlockCounts[b.ID])
		}
	}
}

func TestDiamondTakesMax(t *testing.T) {
	g := buildGraph(t, `
        li  r1, 1
        beq r1, r0, cheap
        mul r2, r1, r1     ; expensive side
        mul r2, r2, r2
        mul r2, r2, r2
        j   join
cheap:  addi r2, r0, 1
join:   halt`)
	costs := unitCosts(g)
	res, err := solve(&problem{G: g, Cost: costs})
	if err != nil {
		t.Fatal(err)
	}
	// Expensive side: cond(2) + then(4) + join(1) = 7.
	if res.WCET != 7 {
		t.Errorf("WCET = %d, want 7\n%s", res.WCET, g.Dump())
	}
	// The chosen path must be consistent: exactly one of the two
	// branch-successor blocks executes.
	var thenCount, elseCount int64
	for _, e := range g.Entry.Succs {
		c := res.EdgeCounts[e.ID]
		if e.Kind == cfg.EdgeTaken {
			elseCount = c
		} else {
			thenCount = c
		}
	}
	if thenCount+elseCount != 1 || thenCount != 1 {
		t.Errorf("then/else edge counts = %d/%d, want 1/0", thenCount, elseCount)
	}
}

func TestSingleLoopArithmetic(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 7
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	res, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	// pre(1) + loop(3)*7 + halt(1) = 23.
	if res.WCET != 23 {
		t.Errorf("WCET = %d, want 23", res.WCET)
	}
}

func TestNestedLoopArithmetic(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 3
outer:  li   r2, 4
inner:  add  r4, r4, r2
        addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	res, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	// pre(1) + outerhdr(1)*3 + inner(3)*12 + outertail(2)*3 + halt(1) = 47.
	if res.WCET != 47 {
		t.Errorf("WCET = %d, want 47", res.WCET)
	}
	// Inner header must execute 12 times.
	inner := g.Loops[1]
	if got := res.BlockCounts[inner.Header.ID]; got != 12 {
		t.Errorf("inner header count = %d, want 12", got)
	}
}

func TestPersistenceEventChargedOncePerEntry(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 9
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	l := g.Loops[0]
	base, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	withPS, err := solve(&problem{
		G:    g,
		Cost: unitCosts(g),
		Events: []Event{
			{Name: "psmiss", Block: l.Header.ID, Penalty: 50, Scope: l},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withPS.WCET != base.WCET+50 {
		t.Errorf("PS event added %d, want exactly one 50-cycle miss", withPS.WCET-base.WCET)
	}
	if withPS.EventCounts[0] != 1 {
		t.Errorf("event count = %d, want 1", withPS.EventCounts[0])
	}
}

func TestPerExecutionEvent(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 6
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	l := g.Loops[0]
	base, _ := solve(&problem{G: g, Cost: unitCosts(g)})
	res, err := solve(&problem{
		G:      g,
		Cost:   unitCosts(g),
		Events: []Event{{Name: "bus", Block: l.Header.ID, Penalty: 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != base.WCET+7*6 {
		t.Errorf("per-execution event added %d, want %d", res.WCET-base.WCET, 7*6)
	}
	if res.EventCounts[0] != 6 {
		t.Errorf("event count = %d, want 6", res.EventCounts[0])
	}
}

func TestInfeasiblePathConstraint(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 5
loop:   slti r3, r1, 3
        bne  r3, r0, cheap
        mul  r4, r1, r1      ; expensive side: 4 instructions
        mul  r4, r4, r4
        mul  r4, r4, r4
        j    next
cheap:  addi r4, r4, 1
next:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	// Find the expensive block (4 instructions ending in J).
	var exp *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && b.Len() == 4 {
			exp = b
		}
	}
	if exp == nil {
		t.Fatalf("no expensive block found\n%s", g.Dump())
	}
	unconstrained, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := solve(&problem{
		G:    g,
		Cost: unitCosts(g),
		Extra: []flow.Constraint{{
			Name:  "exp_at_most_2",
			Terms: []flow.Term{{Coef: 1, Block: exp}},
			Rel:   flow.RelLE,
			RHS:   2,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained: expensive side all 5 iterations.
	// Constrained: expensive twice, cheap three times: saves 3*(4-1)=9.
	if constrained.WCET != unconstrained.WCET-9 {
		t.Errorf("constrained %d vs unconstrained %d, want gap 9",
			constrained.WCET, unconstrained.WCET)
	}
	if constrained.BlockCounts[exp.ID] != 2 {
		t.Errorf("expensive block count = %d, want 2", constrained.BlockCounts[exp.ID])
	}
}

func TestUnboundedLoopRejected(t *testing.T) {
	g := buildGraph(t, `
        li   r3, 0x8000
        ld   r1, 0(r3)
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, err := solve(&problem{G: g, Cost: unitCosts(g)}); err == nil {
		t.Fatal("unbounded loop accepted")
	}
}

func TestContradictoryConstraintsRejected(t *testing.T) {
	g := buildGraph(t, "li r1, 1\nhalt")
	_, err := solve(&problem{
		G:    g,
		Cost: unitCosts(g),
		Extra: []flow.Constraint{{
			Name:  "impossible",
			Terms: []flow.Term{{Coef: 1, Block: g.Entry}},
			Rel:   flow.RelGE,
			RHS:   2,
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("want infeasibility error, got %v", err)
	}
}

func TestSolveDAGLongestRejectsLoops(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 5
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, err := solveDAGLongest(g, unitCosts(g)); err == nil {
		t.Fatal("loopy graph accepted by DAG solver")
	}
}

// TestIPETMatchesDAGLongestRandom: on random loop-free diamond chains with
// random costs, IPET and the independent longest-path DP must agree.
func TestIPETMatchesDAGLongestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(5)
		var sb strings.Builder
		sb.WriteString("        li r1, 1\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&sb, "        beq r1, r0, else%d\n", i)
			for j := 0; j < 1+rng.Intn(3); j++ {
				sb.WriteString("        add r2, r2, r1\n")
			}
			fmt.Fprintf(&sb, "        j join%d\n", i)
			fmt.Fprintf(&sb, "else%d:  addi r3, r3, 1\n", i)
			for j := 0; j < rng.Intn(3); j++ {
				sb.WriteString("        add r3, r3, r1\n")
			}
			fmt.Fprintf(&sb, "join%d:  add r4, r2, r3\n", i)
		}
		sb.WriteString("        halt\n")
		g, err := cfg.Build(isa.MustAssemble("dag", sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		costs := map[cfg.BlockID]int{}
		for _, b := range g.Blocks {
			costs[b.ID] = rng.Intn(50)
		}
		want, err := solveDAGLongest(g, costs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solve(&problem{G: g, Cost: costs})
		if err != nil {
			t.Fatal(err)
		}
		if res.WCET != want {
			t.Fatalf("trial %d: IPET %d != DAG longest %d\n%s", trial, res.WCET, want, sb.String())
		}
	}
}

// TestIPETLoopNestRandom validates IPET against closed-form arithmetic on
// random rectangular loop nests with unit costs.
func TestIPETLoopNestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		b1 := 1 + rng.Intn(6)
		b2 := 1 + rng.Intn(6)
		src := fmt.Sprintf(`
        li   r1, %d
outer:  li   r2, %d
inner:  add  r4, r4, r2
        addi r2, r2, -1
        bne  r2, r0, inner
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`, b1, b2)
		g, err := cfg.Build(isa.MustAssemble("nest", src))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := flow.BoundAll(g, nil); err != nil {
			t.Fatal(err)
		}
		res, err := solve(&problem{G: g, Cost: unitCosts(g)})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1 + b1*1 + b1*b2*3 + b1*2 + 1)
		if res.WCET != want {
			t.Fatalf("trial %d (b1=%d b2=%d): WCET %d, want %d", trial, b1, b2, res.WCET, want)
		}
	}
}

func TestResultStats(t *testing.T) {
	g := buildGraph(t, "li r1, 1\nhalt")
	res, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Vars <= 0 || res.Cons <= 0 || res.Nodes <= 0 {
		t.Errorf("stats not populated: %+v", res)
	}
}
