package cache

import (
	"slices"

	"paratime/internal/cfg"
)

// refOp is one reference of a stream compiled against an Index: address
// resolution (line → slot, candidate sets) and the reference's CAC are
// done once, so the fixpoint's transfer functions run over small
// integers with no map lookups and no allocation.
type refOp struct {
	slot    int32 // exact references: interned slot; -1 otherwise
	cac     CAC
	unknown bool
	slots   []int32 // imprecise: interned candidate slots, ascending
	sets    []int32 // imprecise: distinct sets touched, ascending
}

// compileOps lowers a stream to per-block op lists indexed by block ID
// (block IDs equal RPO positions, so ops[i] belongs to g.Blocks[i]).
// cac may be nil for single-level analyses (every reference Always
// reaches the level).
func compileOps(g *cfg.Graph, st *Stream, cac map[RefID]CAC, idx *Index) [][]refOp {
	ops := make([][]refOp, len(g.Blocks))
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		refs := st.Refs[b.ID]
		if len(refs) == 0 {
			continue
		}
		row := make([]refOp, len(refs))
		for seq, r := range refs {
			op := refOp{slot: -1}
			if cac != nil {
				op.cac = cac[RefID{Block: b.ID, Seq: seq}]
			}
			switch {
			case r.Exact:
				slot, ok := idx.SlotOf(idx.cfg.LineOf(r.Addr))
				if !ok {
					panic("cache: exact reference line not interned")
				}
				op.slot = slot
			case r.Unknown:
				op.unknown = true
			default:
				lines := idx.cfg.LinesOf(r.Addrs)
				op.slots = make([]int32, len(lines))
				op.sets = make([]int32, len(lines))
				for i, l := range lines {
					slot, ok := idx.SlotOf(l)
					if !ok {
						panic("cache: imprecise reference line not interned")
					}
					op.slots[i] = slot
					op.sets[i] = int32(idx.cfg.SetOf(l))
				}
				slices.Sort(op.slots)
				slices.Sort(op.sets)
				op.sets = slices.Compact(op.sets)
			}
			row[seq] = op
		}
		ops[int(b.ID)] = row
	}
	return ops
}

// applyOp is the compiled transfer function: the dense-state equivalent
// of applyRef (and, with an Always CAC, of the single-level transfer).
func (a *ACS) applyOp(op refOp) {
	switch {
	case op.cac == Never:
		// no effect at this level
	case op.unknown:
		a.AccessUnknown()
	case op.slot >= 0:
		if op.cac == Uncertain {
			a.accessUncertainSlot(op.slot)
		} else {
			a.accessSlot(op.slot)
		}
	default:
		// Imprecise: accessing and not accessing join to the same state
		// under both CACs, so Uncertain needs no extra join here.
		if a.kind == Must {
			for _, s := range op.sets {
				a.ageSetRange(int(s), 1)
			}
		} else {
			for _, slot := range op.slots {
				a.age[slot] = 0
			}
		}
	}
}

// runFixpoint computes the Must or May in-states of every reachable
// block with a cfg.Worklist in RPO priority order and publishes them
// into the block-ID-keyed map: a block's in-state is the join of its
// predecessors' out-states, and only the successors of blocks whose
// out-state actually changed are re-examined. All states live in
// preallocated dense vectors and the two scratch states are reused
// across iterations, so steady-state iteration allocates nothing.
// The transfer functions are monotone and the join is an element-wise
// max/min on a finite lattice, so the result is the unique least
// fixpoint, independent of visit order.
func (res *Result) runFixpoint(g *cfg.Graph, ops [][]refOp, kind ACSKind, inStates map[cfg.BlockID]*ACS) {
	blocks := g.Blocks // already RPO-ordered, with ID == position
	n := len(blocks)
	in := make([]*ACS, n)
	out := make([]*ACS, n)
	scratchIn := NewACS(res.idx, kind)
	scratchOut := NewACS(res.idx, kind)
	wl := cfg.NewWorklist(n)
	for i := range blocks {
		wl.Push(i)
	}
	for {
		i, ok := wl.Pop()
		if !ok {
			break
		}
		b := blocks[i]
		if b == g.Entry {
			scratchIn.Reset()
		} else {
			first := true
			for _, e := range b.Preds {
				p := out[int(e.From.ID)]
				if p == nil {
					continue // unvisited predecessor (back edge, first pass)
				}
				if first {
					scratchIn.CopyFrom(p)
					first = false
				} else {
					scratchIn.JoinInPlace(p)
				}
			}
			if first {
				continue // re-enqueued once a predecessor produces a state
			}
		}
		if in[i] != nil && out[i] != nil && scratchIn.Equal(in[i]) {
			continue
		}
		if in[i] == nil {
			in[i] = scratchIn.Clone()
		} else {
			in[i].CopyFrom(scratchIn)
		}
		scratchOut.CopyFrom(scratchIn)
		for _, op := range ops[i] {
			scratchOut.applyOp(op)
		}
		if out[i] == nil {
			out[i] = scratchOut.Clone()
		} else if scratchOut.Equal(out[i]) {
			continue
		} else {
			out[i].CopyFrom(scratchOut)
		}
		for _, e := range b.Succs {
			wl.Push(int(e.To.ID))
		}
	}
	for i, b := range blocks {
		if in[i] != nil {
			inStates[b.ID] = in[i]
		}
	}
}
