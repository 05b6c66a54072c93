// Package cfg reconstructs control-flow graphs from linked isa.Programs
// and computes the structural facts static WCET analysis needs: basic
// blocks, dominators, natural loops with nesting, and reverse post-order.
//
// Calls are handled by virtual inlining: each call site instantiates a
// fresh copy of the callee's blocks, giving a single connected,
// context-sensitive graph per task. This mirrors how classical WCET tools
// obtain context-sensitive cache and pipeline analysis without an
// interprocedural fixpoint. Recursion is rejected.
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"paratime/internal/isa"
)

// BlockID identifies a basic block within one Graph.
type BlockID int

// EdgeKind labels how control moves along an edge.
type EdgeKind uint8

// Edge kinds.
const (
	EdgeFall   EdgeKind = iota // sequential fall-through
	EdgeTaken                  // conditional branch taken
	EdgeJump                   // unconditional jump
	EdgeCall                   // call site to inlined callee entry
	EdgeReturn                 // inlined callee exit back to continuation
	EdgeExit                   // block to the synthetic exit
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFall:
		return "fall"
	case EdgeTaken:
		return "taken"
	case EdgeJump:
		return "jump"
	case EdgeCall:
		return "call"
	case EdgeReturn:
		return "return"
	case EdgeExit:
		return "exit"
	default:
		return "?"
	}
}

// Edge is one control-flow edge. Edges are shared between the successor
// list of From and the predecessor list of To.
type Edge struct {
	ID   int
	From *Block
	To   *Block
	Kind EdgeKind
}

func (e *Edge) String() string {
	return fmt.Sprintf("B%d->B%d(%s)", e.From.ID, e.To.ID, e.Kind)
}

// Block is a basic block: a maximal single-entry straight-line instruction
// sequence. The synthetic exit block has Start == End (no instructions).
//
// Because of virtual inlining, several blocks may cover the same
// instruction range under different calling contexts; they are distinct
// analysis objects that share addresses (and therefore cache lines).
type Block struct {
	ID    BlockID
	Start int // first instruction index in Prog.Insts
	End   int // one past the last instruction index
	Ctx   string

	Succs []*Edge
	Preds []*Edge

	graph *Graph

	// Filled by loop analysis.
	idom *Block // immediate dominator (nil for entry)
	loop *Loop  // innermost containing loop, nil if none
	rpo  int    // reverse post-order number
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// IsExit reports whether b is the synthetic exit block.
func (b *Block) IsExit() bool { return b == b.graph.Exit }

// Insts returns the instruction slice of the block.
func (b *Block) Insts() []isa.Inst { return b.graph.Prog.Insts[b.Start:b.End] }

// Addr returns the byte address of instruction i (counted from the block
// start).
func (b *Block) Addr(i int) uint32 { return b.graph.Prog.Addr(b.Start + i) }

// Loop returns the innermost loop containing the block, or nil.
func (b *Block) Loop() *Loop { return b.loop }

// RPO returns the block's reverse post-order number (entry is 0).
func (b *Block) RPO() int { return b.rpo }

// Dominates reports whether b dominates o.
func (b *Block) Dominates(o *Block) bool {
	for d := o; d != nil; d = d.idom {
		if d == b {
			return true
		}
	}
	return false
}

func (b *Block) String() string {
	if b.IsExit() {
		return fmt.Sprintf("B%d(exit)", b.ID)
	}
	return fmt.Sprintf("B%d[%d..%d)%s", b.ID, b.Start, b.End, b.Ctx)
}

// Loop is a natural loop discovered from back edges. All back edges
// sharing a header are merged into one Loop.
type Loop struct {
	Header *Block
	Blocks map[BlockID]*Block
	Parent *Loop // enclosing loop, nil at top level
	Depth  int   // 1 for outermost loops

	// BackEdges enter the header from inside the loop; EntryEdges enter
	// the header from outside; ExitEdges leave the loop body.
	BackEdges  []*Edge
	EntryEdges []*Edge
	ExitEdges  []*Edge

	// Bound is the maximum iteration count per entry of the loop
	// (a flow fact, set by internal/flow or by hand); -1 if unknown.
	Bound int
}

// Contains reports whether the loop body contains the block.
func (l *Loop) Contains(b *Block) bool { _, ok := l.Blocks[b.ID]; return ok }

func (l *Loop) String() string {
	return fmt.Sprintf("loop@B%d(depth %d, %d blocks, bound %d)",
		l.Header.ID, l.Depth, len(l.Blocks), l.Bound)
}

// Graph is a whole-task control-flow graph after virtual inlining.
type Graph struct {
	Prog   *isa.Program
	Blocks []*Block // Blocks[0] is Entry; exit is the last
	Entry  *Block
	Exit   *Block
	Edges  []*Edge
	Loops  []*Loop // outermost-first, then by header RPO
}

// BlockCount returns the number of blocks including the synthetic exit.
func (g *Graph) BlockCount() int { return len(g.Blocks) }

// RPO returns blocks in reverse post-order (entry first, exit last).
func (g *Graph) RPO() []*Block {
	out := make([]*Block, len(g.Blocks))
	copy(out, g.Blocks)
	slices.SortFunc(out, func(a, b *Block) int { return a.rpo - b.rpo })
	return out
}

// Dump renders the graph for debugging.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "%v:", b)
		for _, e := range b.Succs {
			fmt.Fprintf(&sb, " ->B%d(%s)", e.To.ID, e.Kind)
		}
		sb.WriteByte('\n')
		if !b.IsExit() {
			for i, in := range b.Insts() {
				fmt.Fprintf(&sb, "    0x%04x %v\n", b.Addr(i), in)
			}
		}
	}
	for _, l := range g.Loops {
		fmt.Fprintf(&sb, "%v\n", l)
	}
	return sb.String()
}
