// Package ipet computes WCET bounds with the Implicit Path Enumeration
// Technique of Li & Malik, the method the survey's §2.1 names as the
// standard WCET computation step: block and edge execution counts become
// integer variables, structural flow conservation and loop bounds become
// linear constraints, and the WCET is the maximum of the weighted sum of
// block costs, solved exactly by the internal/ilp solver.
//
// Beyond plain IPET, the package supports PERSISTENT-reference miss
// variables (one miss per loop-scope entry, priced at the miss penalty)
// and per-execution event charges (used for bus/arbiter delay bounds), so
// the same machinery serves the survey's multicore analyses.
//
// The structural part of a model — flow conservation, loop bounds and
// extra path constraints — depends only on the CFG and its flow facts,
// while every analysis variant (interference, bypass, locking, bus
// sweeps) changes only block costs and event charges. A Skeleton
// compiles the structure once. Skeleton.Solve first prices the new
// objective against the optimal basis an earlier solve of the same
// event structure left behind: when that vertex is still the unique
// optimum, the answer needs no model and no pivot. Otherwise it
// specializes the skeleton per scenario for (amortized) pennies and
// solves cold, leaving its optimal basis for the next re-solve. Either
// way the Result is the cold solve's, Pivots aside. Loop-free graphs
// without extra constraints bypass the ILP entirely via longest-path
// dynamic programming.
package ipet

import (
	"fmt"
	"math/big"

	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/ilp"
)

// Event is an extra charge attached to a block.
//
// With Scope == nil the charge applies to every execution of the block
// (cost Penalty × x_block); this expresses per-access bus delay bounds.
// With Scope set the charge is a PERSISTENT miss: it applies at most once
// per entry of the scope loop and at most once per block execution,
// expressing first-miss semantics.
type Event struct {
	// Name is an optional debug label. The solver never reads it — the
	// hot path must not pay for name construction — so callers may leave
	// it empty; an event is identified by (Block, Scope).
	Name    string
	Block   cfg.BlockID
	Penalty int64
	Scope   *cfg.Loop
}

// Result is the outcome of a WCET computation.
type Result struct {
	WCET int64
	// BlockCounts is indexed by block ID and EdgeCounts by edge ID.
	BlockCounts []int64
	EdgeCounts  []int64
	EventCounts []int64 // aligned with the events passed to Solve

	// ILP statistics. A loop-free graph solved by the longest-path fast
	// path reports the skeleton's model size and Nodes == 1 (the ILP
	// relaxation of a pure flow problem is integral at the root).
	Vars, Cons, Nodes int
	// Pivots counts simplex pivots (0 on the longest-path fast path);
	// FellBack reports that the solve overflowed int64 arithmetic and
	// was completed by the exact big.Rat oracle.
	Pivots   int
	FellBack bool
}

// Skeleton is the compiled, immutable structural part of one CFG's IPET
// model: variables for every block and edge, flow conservation, loop
// bounds, and the task's extra path constraints. Building it costs one
// model construction; each Solve then only swaps objective costs and
// event rows. A Skeleton is safe for concurrent Solve calls — the batch
// engine shares one skeleton across all clones of a prepared analysis.
type Skeleton struct {
	g        *cfg.Graph
	base     *ilp.Model
	blockVar []ilp.Var // indexed by BlockID
	edgeVar  []ilp.Var // indexed by Edge.ID
	loopIdx  map[*cfg.Loop]int32
	extra    []compiledCons
	dag      bool // loop-free, no extra constraints: DP fast path valid
	reuse    ilp.Reuse
}

// compiledCons is one pre-translated extra constraint.
type compiledCons struct {
	name  string
	terms *ilp.Lin
	sense ilp.Sense
	rhs   int64
}

// NewSkeleton compiles the structural IPET model for a graph. Every
// loop must carry a bound (the bounds are baked into the constraint
// coefficients, so the skeleton must be rebuilt if they change).
func NewSkeleton(g *cfg.Graph, extra []flow.Constraint) (*Skeleton, error) {
	if err := flow.CheckBounded(g); err != nil {
		return nil, err
	}
	m := ilp.NewModel()
	s := &Skeleton{
		g:        g,
		base:     m,
		blockVar: make([]ilp.Var, len(g.Blocks)),
		edgeVar:  make([]ilp.Var, len(g.Edges)),
		loopIdx:  make(map[*cfg.Loop]int32, len(g.Loops)),
		dag:      len(g.Loops) == 0 && len(extra) == 0,
	}
	for _, b := range g.Blocks {
		s.blockVar[b.ID] = m.AddIntVar(fmt.Sprintf("x_b%d", b.ID))
	}
	for _, e := range g.Edges {
		s.edgeVar[e.ID] = m.AddIntVar(fmt.Sprintf("e_%d", e.ID))
	}

	// Structural constraints: the virtual source enters the entry block
	// once and the virtual sink leaves the exit block once.
	for _, b := range g.Blocks {
		inSum := ilp.NewLin().AddInt(s.blockVar[b.ID], 1)
		for _, e := range b.Preds {
			inSum.AddInt(s.edgeVar[e.ID], -1)
		}
		inRHS := int64(0)
		if b == g.Entry {
			inRHS = 1
		}
		m.AddConstraintInt(fmt.Sprintf("in_b%d", b.ID), inSum, ilp.EQ, inRHS)

		outSum := ilp.NewLin().AddInt(s.blockVar[b.ID], 1)
		for _, e := range b.Succs {
			outSum.AddInt(s.edgeVar[e.ID], -1)
		}
		outRHS := int64(0)
		if b == g.Exit {
			outRHS = 1
		}
		m.AddConstraintInt(fmt.Sprintf("out_b%d", b.ID), outSum, ilp.EQ, outRHS)
	}

	// Loop bounds: back-edge executions per entry.
	for li, l := range g.Loops {
		s.loopIdx[l] = int32(li)
		lhs := ilp.NewLin()
		for _, e := range l.BackEdges {
			lhs.AddInt(s.edgeVar[e.ID], 1)
		}
		for _, e := range l.EntryEdges {
			lhs.AddInt(s.edgeVar[e.ID], -int64(l.Bound-1))
		}
		m.AddConstraintInt(fmt.Sprintf("loop%d_bound", li), lhs, ilp.LE, 0)
	}

	// Extra flow constraints, pre-translated once. They are appended to
	// each instance after its event rows, preserving the historical
	// model layout (events before extras).
	for _, c := range extra {
		lhs := ilp.NewLin()
		for i, t := range c.Terms {
			switch {
			case t.Block != nil:
				lhs.AddInt(s.blockVar[t.Block.ID], t.Coef)
			case t.Edge != nil:
				lhs.AddInt(s.edgeVar[t.Edge.ID], t.Coef)
			default:
				return nil, fmt.Errorf("constraint %q term %d has neither block nor edge", c.Name, i)
			}
		}
		var sense ilp.Sense
		switch c.Rel {
		case flow.RelLE:
			sense = ilp.LE
		case flow.RelGE:
			sense = ilp.GE
		default:
			sense = ilp.EQ
		}
		s.extra = append(s.extra, compiledCons{
			name:  fmt.Sprintf("extra_%s", c.Name),
			terms: lhs,
			sense: sense,
			rhs:   c.RHS,
		})
	}
	return s, nil
}

// ReuseStats reports the skeleton's answers from the optimal basis
// (hits) and its root solves (misses).
//
//paralint:testonly ipet and engine tests check that re-solves are answered from the optimal basis
func (s *Skeleton) ReuseStats() (hits, misses uint64) { return s.reuse.Stats() }

// Solve prices the skeleton under the given block costs and event
// charges and solves for the WCET. cost is a dense vector indexed by
// block ID (block IDs equal RPO positions), the form the pipeline layer
// produces. It may be called concurrently.
func (s *Skeleton) Solve(cost []int, events []Event) (*Result, error) {
	nscoped := 0
	for i := range events {
		if events[i].Scope != nil {
			nscoped++
		}
	}
	if s.dag && nscoped == 0 {
		if res, ok := s.solveDAG(cost, events); ok {
			return res, nil
		}
	}
	g := s.g
	nbase := s.base.NumVars()

	// The objective is built in variable order at its final size: block
	// costs with the per-execution charges folded in, then one term per
	// scoped event.
	obj := ilp.NewLinCap(len(g.Blocks) + nscoped)
	for _, b := range g.Blocks {
		if c := cost[b.ID]; c != 0 {
			obj.AddInt(s.blockVar[b.ID], int64(c))
		}
	}
	eventVars := make([]ilp.Var, len(events))
	for i, ev := range events {
		if ev.Scope == nil {
			obj.AddInt(s.blockVar[ev.Block], ev.Penalty)
			eventVars[i] = -1
		}
	}

	// Event variables. The reuse key must determine the event rows
	// exactly: one (block, scope) pair per scoped event, in order.
	// Penalties live in the objective and so stay out of the key — that
	// is what lets sweep re-solves price from the optimal basis. Scoped
	// events get the variables the model build below adds for them,
	// numbered after the skeleton's.
	reuseKey := make([]int64, 0, 2*nscoped)
	reuse := &s.reuse
	nvars := nbase
	for i, ev := range events {
		if ev.Scope == nil {
			continue
		}
		li, ok := s.loopIdx[ev.Scope]
		if !ok {
			// A scope the skeleton does not know cannot be keyed; solve
			// without reuse rather than risk a stale anchor.
			reuse = nil
			li = -1
		}
		eventVars[i] = ilp.Var(nvars)
		nvars++
		obj.AddInt(eventVars[i], ev.Penalty)
		reuseKey = append(reuseKey, int64(ev.Block), int64(li))
	}

	res := &Result{
		Vars: nvars,
		Cons: s.base.NumCons() + 2*(nvars-nbase) + len(s.extra),
	}
	if reuse != nil {
		if value, x, ok := reuse.Price(reuseKey, nvars, obj); ok {
			// The anchor vertex is the unique optimum, so the solve below
			// would report it too, at the root.
			res.WCET, res.Nodes = value, 1
			s.counts(res, x, events, eventVars)
			return res, nil
		}
	}

	m := s.base.Fork()
	for i, ev := range events {
		if ev.Scope == nil {
			continue
		}
		mv := m.AddIntVar("")
		if mv != eventVars[i] {
			panic(fmt.Sprintf("ipet: event variable %d numbered %d", mv, eventVars[i]))
		}
		// At most once per scope entry.
		lhs := ilp.NewLin().AddInt(mv, 1)
		for _, e := range ev.Scope.EntryEdges {
			lhs.AddInt(s.edgeVar[e.ID], -1)
		}
		m.AddConstraintInt("", lhs, ilp.LE, 0)
		// At most once per block execution.
		lhs2 := ilp.NewLin().AddInt(mv, 1).AddInt(s.blockVar[ev.Block], -1)
		m.AddConstraintInt("", lhs2, ilp.LE, 0)
	}

	for _, c := range s.extra {
		m.AddConstraintInt(c.name, c.terms, c.sense, c.rhs)
	}

	m.SetObjective(obj)
	var sol *ilp.Solution
	var err error
	if reuse != nil {
		sol, err = m.SolveWithReuse(reuse, reuseKey)
	} else {
		sol, err = m.Solve()
	}
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Infeasible:
		return nil, fmt.Errorf("ipet: model infeasible (contradictory flow facts?)")
	case ilp.Unbounded:
		return nil, fmt.Errorf("ipet: model unbounded (missing loop bound?)")
	}
	if !sol.Value.IsInt() {
		return nil, fmt.Errorf("ipet: non-integral optimum %s", sol.Value.RatString())
	}
	res.WCET = ratInt(sol.Value)
	res.Nodes, res.Pivots, res.FellBack = sol.Nodes, sol.Pivots, sol.FellBack
	x := make([]int64, len(sol.X))
	for i := range sol.X {
		x[i] = ratInt(sol.X[i])
	}
	s.counts(res, x, events, eventVars)
	return res, nil
}

// counts fills res's block, edge and event counts from the solution
// vector x; eventVars holds each scoped event's variable and -1 for a
// per-execution event, which counts its block's executions.
func (s *Skeleton) counts(res *Result, x []int64, events []Event, eventVars []ilp.Var) {
	s.allocCounts(res, len(events))
	for _, b := range s.g.Blocks {
		res.BlockCounts[b.ID] = x[s.blockVar[b.ID]]
	}
	for _, e := range s.g.Edges {
		res.EdgeCounts[e.ID] = x[s.edgeVar[e.ID]]
	}
	for i, mv := range eventVars {
		if mv >= 0 {
			res.EventCounts[i] = x[mv]
		} else {
			res.EventCounts[i] = res.BlockCounts[events[i].Block]
		}
	}
}

// allocCounts gives res zeroed block, edge and event counts over one
// backing array.
func (s *Skeleton) allocCounts(res *Result, nevents int) {
	nb, ne := len(s.g.Blocks), len(s.g.Edges)
	all := make([]int64, nb+ne+nevents)
	res.BlockCounts = all[:nb:nb]
	res.EdgeCounts = all[nb : nb+ne : nb+ne]
	res.EventCounts = all[nb+ne:]
}

// solveDAG computes the loop-free case by longest-path dynamic
// programming over the reverse post-order, with a traceback supplying
// the witness path's block and edge counts. Valid only without loops,
// extra constraints, or scoped events (per-execution event charges fold
// into the block costs). Returns ok=false when some block is
// unreachable (the ILP handles that case by forcing zero flow).
func (s *Skeleton) solveDAG(cost []int, events []Event) (*Result, bool) {
	g := s.g
	eff := make([]int64, len(g.Blocks))
	for _, b := range g.Blocks {
		eff[b.ID] = int64(cost[b.ID])
	}
	for i := range events {
		eff[events[i].Block] += events[i].Penalty
	}
	best := make([]int64, len(g.Blocks))
	reached := make([]bool, len(g.Blocks))
	via := make([]*cfg.Edge, len(g.Blocks)) // argmax predecessor edge
	for _, b := range g.RPO() {
		if b == g.Entry {
			best[b.ID] = eff[b.ID]
			reached[b.ID] = true
			continue
		}
		chosen := (*cfg.Edge)(nil)
		var chosenVal int64
		for _, e := range b.Preds {
			if !reached[e.From.ID] {
				continue
			}
			if chosen == nil || best[e.From.ID] > chosenVal {
				chosen = e
				chosenVal = best[e.From.ID]
			}
		}
		if chosen == nil {
			return nil, false
		}
		best[b.ID] = chosenVal + eff[b.ID]
		reached[b.ID] = true
		via[b.ID] = chosen
	}
	if !reached[g.Exit.ID] {
		return nil, false
	}
	res := &Result{
		WCET:  best[g.Exit.ID],
		Vars:  s.base.NumVars(),
		Cons:  s.base.NumCons(),
		Nodes: 1,
	}
	s.allocCounts(res, len(events))
	for b := g.Exit; ; {
		res.BlockCounts[b.ID] = 1
		e := via[b.ID]
		if e == nil {
			break
		}
		res.EdgeCounts[e.ID] = 1
		b = e.From
	}
	for i := range events {
		res.EventCounts[i] = res.BlockCounts[events[i].Block]
	}
	return res, true
}

func ratInt(r *big.Rat) int64 {
	if !r.IsInt() {
		// The caller checked the objective; variable values at an integer
		// optimum of a bounded ILP are integral by construction.
		panic(fmt.Sprintf("ipet: non-integral solution value %s", r.RatString()))
	}
	return r.Num().Int64()
}
