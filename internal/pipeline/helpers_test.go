package pipeline

import "paratime/internal/cfg"

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

// In returns the in-context the fixpoint reached for a block; ok is
// false when the block was never reached (the context is then the zero
// entry context, matching how it is priced).
func (r *CostResult) In(id cfg.BlockID) (Context, bool) { return r.in[id], r.seen[id] }

// AnalyzeCosts compiles g and runs Compiled.AnalyzeCosts.
func AnalyzeCosts(g *cfg.Graph, pc Config, worst, base TimingFn) (*CostResult, error) {
	return Compile(g).AnalyzeCosts(pc, worst, base)
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
