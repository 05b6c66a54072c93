package ipet

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/ilp"
	"paratime/internal/isa"
)

// TestSkeletonReSolveMatchesFresh: one compiled skeleton re-priced under
// many cost/event variants must return exactly what a fresh one-shot
// Solve returns, and the re-solves whose vertex stays the unique optimum
// must be answered from the optimal basis.
func TestSkeletonReSolveMatchesFresh(t *testing.T) {
	p := benchProblem(t)
	s, err := NewSkeleton(p.G, p.Extra)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for variant := 0; variant < 10; variant++ {
		costs := map[cfg.BlockID]int{}
		for _, id := range slices.Sorted(maps.Keys(p.Cost)) {
			costs[id] = p.Cost[id] + rng.Intn(9)
		}
		events := make([]Event, len(p.Events))
		copy(events, p.Events)
		for i := range events {
			events[i].Penalty = int64(5 + rng.Intn(40))
		}
		got, err := s.Solve(denseCosts(p.G, costs), events)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve(&problem{G: p.G, Cost: costs, Events: events, Extra: p.Extra})
		if err != nil {
			t.Fatal(err)
		}
		if got.WCET != want.WCET {
			t.Fatalf("variant %d: skeleton WCET %d, fresh %d", variant, got.WCET, want.WCET)
		}
		if got.Vars != want.Vars || got.Cons != want.Cons || got.Nodes != want.Nodes {
			t.Fatalf("variant %d: stats (%d,%d,%d) vs fresh (%d,%d,%d)",
				variant, got.Vars, got.Cons, got.Nodes, want.Vars, want.Cons, want.Nodes)
		}
		for id, c := range want.BlockCounts {
			if got.BlockCounts[id] != c {
				t.Fatalf("variant %d: block %d count %d, fresh %d", variant, id, got.BlockCounts[id], c)
			}
		}
		for i, c := range want.EventCounts {
			if got.EventCounts[i] != c {
				t.Fatalf("variant %d: event %d count %d, fresh %d", variant, i, got.EventCounts[i], c)
			}
		}
	}
	// Eight of the nine re-solves keep the first solve's vertex as their
	// unique optimum; the other one solves cold.
	if hits, misses := s.ReuseStats(); hits != 8 || misses != 2 {
		t.Errorf("anchor answers %d, root solves %d; want 8 and 2", hits, misses)
	}
}

// diffButPivots reports how got and want differ on the Result fields
// but Pivots, which an answer from the anchor leaves at zero, or nil if
// they agree.
func diffButPivots(got, want *Result) error {
	g, w := *got, *want
	g.Pivots, w.Pivots = 0, 0
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("result %+v, fresh skeleton %+v", *got, *want)
	}
	return nil
}

func sameButPivots(t *testing.T, got, want *Result) {
	t.Helper()
	if err := diffButPivots(got, want); err != nil {
		t.Fatal(err)
	}
}

// TestSkeletonPricesFromAnchor: once a solve has left its optimal basis
// as the anchor, a re-solve whose vertex stays the unique optimum is
// answered from it: no pivots, one node, and otherwise the Result of a
// fresh skeleton.
func TestSkeletonPricesFromAnchor(t *testing.T) {
	p := benchProblem(t)
	s, err := NewSkeleton(p.G, p.Extra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(denseCosts(p.G, p.Cost), p.Events); err != nil {
		t.Fatal(err)
	}
	costs := map[cfg.BlockID]int{}
	for id, c := range p.Cost {
		costs[id] = c + 1
	}
	got, err := s.Solve(denseCosts(p.G, costs), p.Events)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pivots != 0 || got.Nodes != 1 {
		t.Fatalf("re-solve took %d pivots and %d nodes, want an anchor answer (0 and 1)", got.Pivots, got.Nodes)
	}
	want, err := solve(&problem{G: p.G, Cost: costs, Events: p.Events, Extra: p.Extra})
	if err != nil {
		t.Fatal(err)
	}
	sameButPivots(t, got, want)
	if hits, misses := s.ReuseStats(); hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 and 1", hits, misses)
	}
}

// TestSkeletonTieDeclinesPrice: an if/else whose arms cost the same
// leaves the anchor vertex optimal but not unique, so Price must decline
// and the re-solve must run the simplex to the vertex a fresh skeleton
// reports.
func TestSkeletonTieDeclinesPrice(t *testing.T) {
	g := buildGraph(t, `
        li   r1, 6
loop:   slti r2, r1, 3
        bne  r2, r0, other
        addi r3, r3, 1
        j    join
other:  addi r4, r4, 1
join:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		t.Fatal(err)
	}
	s, err := NewSkeleton(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	arms := g.Loops[0].Header.Succs
	if len(arms) != 2 {
		t.Fatalf("loop header has %d successors, want the two arms\n%s", len(arms), g.Dump())
	}
	unique, tie := unitCosts(g), unitCosts(g)
	unique[arms[0].To.ID], unique[arms[1].To.ID] = 9, 5
	tie[arms[0].To.ID], tie[arms[1].To.ID] = 5, 5
	price := func(cost map[cfg.BlockID]int) bool {
		obj := ilp.NewLin()
		for id, c := range cost {
			obj.AddInt(s.blockVar[id], int64(c))
		}
		_, _, ok := s.reuse.Price(nil, s.base.NumVars(), obj)
		return ok
	}
	if _, err := s.Solve(denseCosts(g, unique), nil); err != nil {
		t.Fatal(err)
	}
	if !price(unique) {
		t.Fatal("Price declined the objective that installed the anchor")
	}
	if price(tie) {
		t.Fatal("Price answered an objective whose optimum is not unique")
	}
	got, err := s.Solve(denseCosts(g, tie), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solve(&problem{G: g, Cost: tie})
	if err != nil {
		t.Fatal(err)
	}
	sameButPivots(t, got, want)
}

// TestSkeletonConcurrentSolve hammers one shared skeleton from many
// goroutines (the batch-engine sharing pattern); run with -race. Which
// solve installs the anchor depends on scheduling, but every Result must
// still be the fresh skeleton's, Pivots aside.
func TestSkeletonConcurrentSolve(t *testing.T) {
	p := benchProblem(t)
	s, err := NewSkeleton(p.G, p.Extra)
	if err != nil {
		t.Fatal(err)
	}
	// Reference results per delta, computed sequentially.
	want := make([]*Result, 8)
	variantCost := func(d int) map[cfg.BlockID]int {
		costs := map[cfg.BlockID]int{}
		for id, c := range p.Cost {
			costs[id] = c + d
		}
		return costs
	}
	for d := range want {
		res, err := solve(&problem{G: p.G, Cost: variantCost(d), Events: p.Events, Extra: p.Extra})
		if err != nil {
			t.Fatal(err)
		}
		want[d] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := i % 8
			res, err := s.Solve(denseCosts(p.G, variantCost(d)), p.Events)
			if err != nil {
				errs[i] = err
				return
			}
			if err := diffButPivots(res, want[d]); err != nil {
				errs[i] = fmt.Errorf("goroutine %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveAcyclicMatchesDAGLongest (the routing satellite): on loop-free
// graphs Solve must take the longest-path fast path and return the same
// bound as the independent DP, with a consistent witness path and
// ILP-free statistics.
func TestSolveAcyclicMatchesDAGLongest(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(5)
		src := "        li r1, 1\n"
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("        beq r1, r0, else%d\n", i)
			for j := 0; j < 1+rng.Intn(3); j++ {
				src += "        add r2, r2, r1\n"
			}
			src += fmt.Sprintf("        j join%d\nelse%d:  addi r3, r3, 1\njoin%d:  add r4, r2, r3\n", i, i, i)
		}
		src += "        halt\n"
		g, err := cfg.Build(isa.MustAssemble("acyclic", src))
		if err != nil {
			t.Fatal(err)
		}
		costs := map[cfg.BlockID]int{}
		for _, b := range g.Blocks {
			costs[b.ID] = rng.Intn(40)
		}
		res, err := solve(&problem{G: g, Cost: costs})
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveDAGLongest(g, costs)
		if err != nil {
			t.Fatal(err)
		}
		if res.WCET != want {
			t.Fatalf("trial %d: solve %d != solveDAGLongest %d", trial, res.WCET, want)
		}
		if res.Nodes != 1 || res.Pivots != 0 || res.Vars <= 0 || res.Cons <= 0 {
			t.Fatalf("trial %d: fast-path stats wrong: %+v", trial, res)
		}
		// The witness path must be a unit flow: entry and exit execute
		// once, and each block's count equals its chosen in-flow.
		if res.BlockCounts[g.Entry.ID] != 1 || res.BlockCounts[g.Exit.ID] != 1 {
			t.Fatalf("trial %d: entry/exit counts %d/%d", trial,
				res.BlockCounts[g.Entry.ID], res.BlockCounts[g.Exit.ID])
		}
		var pathCost int64
		for _, b := range g.Blocks {
			switch res.BlockCounts[b.ID] {
			case 0:
			case 1:
				pathCost += int64(costs[b.ID])
				var in, out int64
				for _, e := range b.Preds {
					in += res.EdgeCounts[e.ID]
				}
				for _, e := range b.Succs {
					out += res.EdgeCounts[e.ID]
				}
				if b != g.Entry && in != 1 {
					t.Fatalf("trial %d: block %v on path with in-flow %d", trial, b, in)
				}
				if b != g.Exit && out != 1 {
					t.Fatalf("trial %d: block %v on path with out-flow %d", trial, b, out)
				}
			default:
				t.Fatalf("trial %d: block count %d on acyclic graph", trial, res.BlockCounts[b.ID])
			}
		}
		if pathCost != want {
			t.Fatalf("trial %d: witness path cost %d != WCET %d", trial, pathCost, want)
		}
	}
}

// TestAcyclicPerExecutionEventsFold: unscoped events on loop-free graphs
// ride the fast path as cost increments.
func TestAcyclicPerExecutionEventsFold(t *testing.T) {
	g := buildGraph(t, "li r1, 1\nadd r2, r1, r1\nhalt")
	base, err := solve(&problem{G: g, Cost: unitCosts(g)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(&problem{
		G:      g,
		Cost:   unitCosts(g),
		Events: []Event{{Block: g.Entry.ID, Penalty: 11}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET != base.WCET+11 {
		t.Fatalf("event added %d, want 11", res.WCET-base.WCET)
	}
	if res.EventCounts[0] != 1 {
		t.Fatalf("event count %d, want 1", res.EventCounts[0])
	}
	if res.Pivots != 0 {
		t.Fatalf("expected DAG fast path (0 pivots), got %d", res.Pivots)
	}
}

// TestAcyclicWithExtraConstraintUsesILP: extra path constraints disable
// the fast path (they can cut the longest path), and the ILP result
// respects them.
func TestAcyclicWithExtraConstraintUsesILP(t *testing.T) {
	g := buildGraph(t, `
        li  r1, 1
        beq r1, r0, cheap
        mul r2, r1, r1
        mul r2, r2, r2
        mul r2, r2, r2
        j   join
cheap:  addi r2, r0, 1
join:   halt`)
	var exp *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && b.Len() == 4 {
			exp = b
		}
	}
	if exp == nil {
		t.Fatalf("expensive block not found\n%s", g.Dump())
	}
	res, err := solve(&problem{
		G:    g,
		Cost: unitCosts(g),
		Extra: []flow.Constraint{{
			Name:  "ban_expensive",
			Terms: []flow.Term{{Coef: 1, Block: exp}},
			Rel:   flow.RelLE,
			RHS:   0,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Forced onto the cheap side: cond(2) + cheap(1) + join(1) = 4.
	if res.WCET != 4 {
		t.Fatalf("WCET %d, want 4 (constraint ignored?)", res.WCET)
	}
	if res.Pivots == 0 {
		t.Fatal("expected ILP path (pivots > 0) when extra constraints present")
	}
}
