package pipeline

import (
	"fmt"

	"paratime/internal/cfg"
	"paratime/internal/isa"
)

// InstOp is one instruction lowered for the pipeline recurrence: the EX
// latency class, source and destination registers, and the memory flags
// are resolved once at compile time, so evaluating the recurrence is a
// loop over small integers with no map lookups and no allocation. The
// static analysis and the simulator execute the same ops, which is what
// makes the static per-block cost an upper bound of every simulated
// instance by construction. Treat compiled ops as immutable.
type InstOp struct {
	Class  isa.Class // EX-latency class (index into a LatTable)
	NSrc   uint8     // number of live entries in Src
	Src    [2]isa.Reg
	Dst    isa.Reg
	HasDst bool
	Load   bool // LD: result forwards from MEM, not EX
	Mem    bool // LD/ST: data access occupies MEM
}

// CompileOps lowers an instruction sequence to pipeline ops, resolving
// SrcRegs, DstReg and the memory flags once. The simulator compiles each
// core's program through it; Compile uses it for whole-graph analysis.
func CompileOps(insts []isa.Inst) []InstOp {
	ops := make([]InstOp, len(insts))
	for i, in := range insts {
		op := InstOp{Class: isa.ClassOf(in.Op), Mem: in.IsMem(), Load: in.Op == isa.LD}
		for _, r := range SrcRegs(in) {
			op.Src[op.NSrc] = r
			op.NSrc++
		}
		if rd, ok := DstReg(in); ok {
			op.Dst, op.HasDst = rd, true
		}
		ops[i] = op
	}
	return ops
}

// LatTable maps instruction classes to EX-stage latencies (>= 1),
// resolved from a Config's ExLat map once so the recurrence indexes an
// array instead of hashing per instruction.
type LatTable [isa.NumClasses]int

// Latencies resolves the per-class EX latency table of the config.
func (c Config) Latencies() LatTable {
	var lt LatTable
	for cl := range lt {
		lt[cl] = 1
	}
	//paralint:unordered scatter into a fixed array; each class writes its own slot
	for cl, l := range c.ExLat {
		if int(cl) < len(lt) && l >= 1 {
			lt[cl] = l
		}
	}
	return lt
}

// edgeMeta is one compiled successor edge: the target block position and
// whether the successor's fetch stalls behind the transfer's resolution
// (the EdgeContext redirect rule, pre-evaluated from the edge kind).
type edgeMeta struct {
	to       int32
	redirect bool
}

// blockMeta is the compiled shape of one basic block.
type blockMeta struct {
	start, end int32 // instruction range in Compiled.ops
	exit       bool  // synthetic exit / empty: context passes through
	succs      []edgeMeta
}

// Compiled is the immutable pipeline model of one task graph: every
// instruction lowered to an InstOp and every block reduced to an op
// range plus pre-classified successor edges. It is built once per CFG
// (core.Prepare caches it on the Analysis and shares it across Clone,
// like the graph and the IPET skeleton) and is safe for concurrent
// AnalyzeCosts calls; EX latencies stay outside the artefact so one
// compilation serves every pipeline parameterization.
type Compiled struct {
	g      *cfg.Graph
	ops    []InstOp
	blocks []blockMeta
}

// Compile lowers a graph for pipeline costing. Block IDs equal RPO
// positions, so compiled blocks are indexed by block ID.
func Compile(g *cfg.Graph) *Compiled {
	c := &Compiled{g: g, ops: CompileOps(g.Prog.Insts), blocks: make([]blockMeta, len(g.Blocks))}
	for i, b := range g.Blocks {
		m := blockMeta{start: int32(b.Start), end: int32(b.End), exit: b.IsExit() || b.Len() == 0}
		m.succs = make([]edgeMeta, len(b.Succs))
		for j, e := range b.Succs {
			m.succs[j] = edgeMeta{to: int32(e.To.ID), redirect: edgeRedirects(e)}
		}
		c.blocks[i] = m
	}
	return c
}

// Graph returns the graph the model was compiled from.
func (c *Compiled) Graph() *cfg.Graph { return c.g }

// edgeRedirects pre-evaluates EdgeContext's taken-transfer test.
func edgeRedirects(e *cfg.Edge) bool {
	switch e.Kind {
	case cfg.EdgeTaken, cfg.EdgeJump, cfg.EdgeCall, cfg.EdgeReturn, cfg.EdgeExit:
		return e.Kind != cfg.EdgeExit || isRealTransfer(e.From)
	}
	return false
}

// execOps evaluates the pipeline recurrence over a compiled op slice
// starting from *in (which is not modified), writing the result into
// *bt (an out-parameter so the fixpoint reuses one BlockTiming instead
// of copying a Context-sized return per visit). b is the block the ops
// belong to, handed through to tim. This is ExecBlock's engine; empty
// and exit blocks must be handled by the caller.
func execOps(bt *BlockTiming, lt *LatTable, ops []InstOp, b *cfg.Block, tim TimingFn, in *Context) {
	prevIDs := in.Avail[IF]
	prevEXs := in.Avail[ID]
	prevMEMs := in.Avail[EX]
	prevWBs := in.Avail[MEM]
	prevWBd := in.Avail[WB]
	port := in.Port
	ready := in.RegReady

	var lastEXd int
	for i := range ops {
		op := &ops[i]
		t := tim(b, i)
		fetch := max(1, t.Fetch)
		mem := 1
		if op.Mem {
			mem = max(1, t.Mem)
		}
		ex := lt[op.Class]

		ifs := prevIDs
		var ifd int
		if t.FetchMiss {
			start := max(ifs, port)
			ifd = start + fetch
			port = ifd
		} else {
			ifd = ifs + fetch
		}
		ids := max(ifd, prevEXs)
		exs := max(ids+1, prevMEMs)
		for k := uint8(0); k < op.NSrc; k++ {
			if r := ready[op.Src[k]]; r > exs {
				exs = r
			}
		}
		mems := max(exs+ex, prevWBs)
		var memDone int
		if op.Mem && t.MemMiss {
			start := max(mems, port)
			memDone = start + mem
			port = memDone
		} else {
			memDone = mems + mem
		}
		wbs := max(memDone, prevWBd)
		wbd := wbs + 1

		if op.HasDst {
			if op.Load {
				ready[op.Dst] = memDone // load value forwarded from MEM
			} else {
				ready[op.Dst] = exs + ex // ALU result forwarded from EX
			}
		}
		prevIDs, prevEXs, prevMEMs, prevWBs, prevWBd = ids, exs, mems, wbs, wbd
		lastEXd = exs + ex
	}
	dur := prevWBd
	out := &bt.Out
	out.Avail[IF] = clamp(prevIDs - dur)
	out.Avail[ID] = clamp(prevEXs - dur)
	out.Avail[EX] = clamp(prevMEMs - dur)
	out.Avail[MEM] = clamp(prevWBs - dur)
	out.Avail[WB] = clamp(prevWBd - dur) // == 0
	out.Port = clamp(port - dur)
	for r := range out.RegReady {
		out.RegReady[r] = clamp(ready[r] - dur)
	}
	bt.Dur, bt.Resolve = dur, lastEXd
}

// joinEdge folds o into c pointwise — with o's IF availability raised to
// at least ifFloor, the redirect stall of a taken edge — reporting
// whether c grew. Passing ifFloor below every clamped value makes it a
// plain join; folding the redirect in here avoids materializing an
// adjusted Context copy per edge.
func (c *Context) joinEdge(o *Context, ifFloor int) bool {
	changed := false
	oIF := o.Avail[IF]
	if ifFloor > oIF {
		oIF = ifFloor
	}
	if oIF > c.Avail[IF] {
		c.Avail[IF] = oIF
		changed = true
	}
	for i := IF + 1; i < NumStages; i++ {
		if o.Avail[i] > c.Avail[i] {
			c.Avail[i] = o.Avail[i]
			changed = true
		}
	}
	for i := range c.RegReady {
		if o.RegReady[i] > c.RegReady[i] {
			c.RegReady[i] = o.RegReady[i]
			changed = true
		}
	}
	if o.Port > c.Port {
		c.Port = o.Port
		changed = true
	}
	return changed
}

// AnalyzeCosts runs the context fixpoint with worst-case latencies and
// prices each block under its worst context with base latencies, exactly
// like the package-level AnalyzeCosts but over the compiled model: the
// per-block contexts live in a dense slice indexed by block position and
// blocks are revisited through a worklist in RPO priority order, so only
// the successors of blocks whose out-context actually changed are
// re-examined and steady-state iteration allocates nothing.
func (c *Compiled) AnalyzeCosts(pc Config, worst, base TimingFn) (*CostResult, error) {
	lt := pc.Latencies()
	redirectPen := pc.BranchPenalty
	n := len(c.blocks)
	in := make([]Context, n)
	seen := make([]bool, n)
	blocks := c.g.Blocks
	entry := int(c.g.Entry.ID)
	seen[entry] = true
	wl := cfg.NewWorklist(n)
	wl.Push(entry)
	// The context lattice is finite (clamped), so the fixpoint terminates;
	// the pop budget mirrors the retired implementation's iteration guard.
	budget := maxFixIter * (n + 1)
	var bt BlockTiming
	for {
		i, ok := wl.Pop()
		if !ok {
			break
		}
		if budget--; budget < 0 {
			return nil, fmt.Errorf("pipeline: context fixpoint did not converge")
		}
		m := &c.blocks[i]
		if m.exit || len(m.succs) == 0 {
			continue // exit passes the context through and has no successors
		}
		execOps(&bt, &lt, c.ops[m.start:m.end], blocks[i], worst, &in[i])
		for _, e := range m.succs {
			ifFloor := ctxClamp - 1 // below every clamped value: no effect
			if e.redirect {
				ifFloor = clamp(bt.Resolve + redirectPen - bt.Dur)
			}
			to := int(e.to)
			if !seen[to] {
				in[to] = bt.Out
				if ifFloor > in[to].Avail[IF] {
					in[to].Avail[IF] = ifFloor
				}
				seen[to] = true
				wl.Push(to)
			} else if in[to].joinEdge(&bt.Out, ifFloor) {
				wl.Push(to)
			}
		}
	}
	res := &CostResult{cost: make([]int, n), in: in, seen: seen}
	for i, b := range blocks {
		m := &c.blocks[i]
		if m.exit {
			continue
		}
		execOps(&bt, &lt, c.ops[m.start:m.end], b, base, &in[i])
		res.cost[i] = bt.Dur
	}
	return res, nil
}

// ExecBlock prices one block of the compiled model from the given
// context without recompiling it: the allocation-free equivalent of the
// package-level ExecBlock for callers holding the model.
func (c *Compiled) ExecBlock(lt *LatTable, b *cfg.Block, tim TimingFn, in Context) BlockTiming {
	m := &c.blocks[b.ID]
	if m.exit {
		return BlockTiming{Dur: 0, Out: in, Resolve: 0}
	}
	var bt BlockTiming
	execOps(&bt, lt, c.ops[m.start:m.end], b, tim, &in)
	return bt
}
