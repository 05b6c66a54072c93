package ipet

import (
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/isa"
)

// benchProblem builds an IPET model of realistic shape: a three-deep
// loop nest with branching bodies, per-block costs, persistence events
// in every loop scope, and one extra path constraint.
func benchProblem(tb testing.TB) *problem {
	src := `
        li   r1, 8
outer:  li   r2, 6
mid:    li   r3, 4
inner:  slti r5, r3, 2
        bne  r5, r0, cheap
        mul  r4, r4, r3
        mul  r4, r4, r4
        j    next
cheap:  addi r4, r4, 1
next:   addi r3, r3, -1
        bne  r3, r0, inner
        addi r2, r2, -1
        bne  r2, r0, mid
        addi r1, r1, -1
        bne  r1, r0, outer
        halt`
	g, err := cfg.Build(isa.MustAssemble("bench", src))
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := flow.BoundAll(g, nil); err != nil {
		tb.Fatal(err)
	}
	costs := map[cfg.BlockID]int{}
	for _, b := range g.Blocks {
		costs[b.ID] = 1 + 3*b.Len()
	}
	var events []Event
	for _, l := range g.Loops {
		events = append(events, Event{
			Name:    "ps",
			Block:   l.Header.ID,
			Penalty: 20,
			Scope:   l,
		})
	}
	var exp *cfg.Block
	for _, b := range g.Blocks {
		if !b.IsExit() && b.Len() == 3 {
			exp = b
			break
		}
	}
	extra := []flow.Constraint{{
		Name:  "expcap",
		Terms: []flow.Term{{Coef: 1, Block: exp}},
		Rel:   flow.RelLE,
		RHS:   100,
	}}
	return &problem{G: g, Cost: costs, Events: events, Extra: extra}
}

// BenchmarkIPETSolve is one cold WCET computation: model construction
// plus the ILP solve.
func BenchmarkIPETSolve(b *testing.B) {
	p := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPETResolve is the engine-sweep shape: one skeleton priced
// repeatedly under varying block costs (structure identical, objective
// different), so after the first solve each one is priced from its
// optimal basis and solved cold only where that vertex stops being the
// unique optimum.
func BenchmarkIPETResolve(b *testing.B) {
	p := benchProblem(b)
	s, err := NewSkeleton(p.G, p.Extra)
	if err != nil {
		b.Fatal(err)
	}
	variants := make([][]int, 4)
	for v := range variants {
		variants[v] = denseCosts(p.G, p.Cost)
		for id := range variants[v] {
			variants[v][id] += v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cost := range variants {
			if _, err := s.Solve(cost, p.Events); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIPETSolveDAG is the loop-free case, routed through the
// longest-path fast path when available.
func BenchmarkIPETSolveDAG(b *testing.B) {
	src := `
        li  r1, 1
        beq r1, r0, e0
        mul r2, r1, r1
        mul r2, r2, r2
        j   j0
e0:     addi r2, r0, 1
j0:     beq r2, r0, e1
        mul r3, r2, r2
        j   j1
e1:     addi r3, r0, 2
j1:     beq r3, r0, e2
        mul r4, r3, r3
        mul r4, r4, r4
        j   j2
e2:     addi r4, r0, 3
j2:     halt`
	g, err := cfg.Build(isa.MustAssemble("dagbench", src))
	if err != nil {
		b.Fatal(err)
	}
	costs := map[cfg.BlockID]int{}
	for _, bl := range g.Blocks {
		costs[bl.ID] = 2 * bl.Len()
	}
	p := &problem{G: g, Cost: costs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
