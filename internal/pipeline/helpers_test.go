package pipeline

import (
	"slices"

	"paratime/internal/cfg"
)

// Context algebra, per-block accessors and whole-graph entry points that
// only the differential and property tests drive; production costing
// runs Compiled.AnalyzeCosts.

// Join returns the pointwise maximum (worst case) of two contexts.
func (c Context) Join(o Context) Context {
	out := c
	for i := range out.Avail {
		if o.Avail[i] > out.Avail[i] {
			out.Avail[i] = o.Avail[i]
		}
	}
	for i := range out.RegReady {
		if o.RegReady[i] > out.RegReady[i] {
			out.RegReady[i] = o.RegReady[i]
		}
	}
	if o.Port > out.Port {
		out.Port = o.Port
	}
	return out
}

// EdgeContext derives the successor's entry context along an edge from
// the block timing: taken control transfers stall the successor's fetch
// until the transfer resolves plus the redirect penalty.
func EdgeContext(pc Config, bt BlockTiming, e *cfg.Edge) Context {
	ctx := bt.Out
	switch e.Kind {
	case cfg.EdgeTaken, cfg.EdgeJump, cfg.EdgeCall, cfg.EdgeReturn, cfg.EdgeExit:
		if e.Kind == cfg.EdgeExit && !isRealTransfer(e.From) {
			return ctx // HALT falls to the synthetic exit; no redirect
		}
		redirect := clamp(bt.Resolve + pc.BranchPenalty - bt.Dur)
		if redirect > ctx.Avail[IF] {
			ctx.Avail[IF] = redirect
		}
	}
	return ctx
}

// Cost returns the worst-case cost of one block.
func (r *CostResult) Cost(id cfg.BlockID) int { return r.cost[id] }

// fixResult is an AnalyzeCosts result together with the in-contexts and
// reached flags of its fixpoint, which AnalyzeCosts leaves in its pooled
// scratch.
type fixResult struct {
	*CostResult
	in   []Context
	seen []bool
}

// In returns the in-context the fixpoint reached for a block; ok is
// false when the block was never reached (the context is then the zero
// entry context, matching how it is priced).
func (r *fixResult) In(id cfg.BlockID) (Context, bool) { return r.in[id], r.seen[id] }

// analyzeContexts is AnalyzeCosts on the same pooled scratch, keeping a
// copy of the fixpoint's contexts and reached flags.
func (c *Compiled) analyzeContexts(pc Config, worst, base TimingFn) (*fixResult, error) {
	s := fixPool.Get().(*fixScratch)
	res, err := c.analyze(pc, worst, base, s)
	if err != nil {
		return nil, err
	}
	out := &fixResult{CostResult: res, in: slices.Clone(s.in), seen: slices.Clone(s.seen)}
	fixPool.Put(s)
	return out, nil
}

// AnalyzeCosts compiles g and runs its context fixpoint, keeping the
// contexts.
func AnalyzeCosts(g *cfg.Graph, pc Config, worst, base TimingFn) (*fixResult, error) {
	return Compile(g).analyzeContexts(pc, worst, base)
}

// ExecBlock prices one block of the compiled model from the given
// context without recompiling it.
func (c *Compiled) ExecBlock(lt *LatTable, b *cfg.Block, tim TimingFn, in Context) BlockTiming {
	m := &c.blocks[b.ID]
	if m.exit {
		return BlockTiming{Dur: 0, Out: in, Resolve: 0}
	}
	var bt BlockTiming
	execOps(&bt, lt, c.ops[m.start:m.end], b, tim, &in)
	return bt
}
