// Package pipeline models a blocking in-order scalar pipeline
// (IF→ID→EX→MEM→WB) in max-plus form and computes context-parameterized
// worst-case basic-block costs for WCET analysis, following the
// context-parameterized execution-time model of Rochange & Sainrat cited
// by the survey (§2.1, [32]).
//
// The same instruction-level recurrence is evaluated by the static
// analysis (with classified worst-case latencies) and by the
// cycle-accurate simulator in internal/sim (with concrete latencies), so
// the static per-block cost is an upper bound of every simulated instance
// by monotonicity of the max-plus operators.
package pipeline

import (
	"paratime/internal/cfg"
	"paratime/internal/isa"
)

// Stage indexes the pipeline stages.
type Stage int

// Pipeline stages.
const (
	IF Stage = iota
	ID
	EX
	MEM
	WB
	NumStages
)

// ctxClamp bounds how far in the past a context availability can lie;
// clamping *raises* values, which is conservative under max-plus.
const ctxClamp = -64

// Config is the pipeline timing parameterization.
type Config struct {
	// ExLat is the EX-stage occupancy per instruction class (cycles >= 1).
	ExLat map[isa.Class]int
	// BranchPenalty is the refetch delay after any taken control transfer,
	// counted from the end of the transfer's EX stage.
	BranchPenalty int
}

// DefaultConfig returns a standard parameterization: single-cycle ALU,
// 3-cycle multiply, 12-cycle divide, 2-cycle redirect penalty.
func DefaultConfig() Config {
	return Config{
		ExLat: map[isa.Class]int{
			isa.ClassNop: 1, isa.ClassALU: 1, isa.ClassMul: 3, isa.ClassDiv: 12,
			isa.ClassLoad: 1, isa.ClassStore: 1,
			isa.ClassBranch: 1, isa.ClassJump: 1, isa.ClassHalt: 1,
		},
		BranchPenalty: 2,
	}
}

// exLat returns the EX latency of an instruction (>= 1).
func (c Config) exLat(in isa.Inst) int {
	if l, ok := c.ExLat[isa.ClassOf(in.Op)]; ok && l >= 1 {
		return l
	}
	return 1
}

// InstTiming carries the memory-latency inputs of one instruction:
// the fetch latency and, for LD/ST, the data-access latency. Both are
// occupancy times (>= 1); cache classification decides their values.
//
// FetchMiss/MemMiss mark accesses that leave the L1s. The core has a
// single blocking miss port: two miss transactions of the same core never
// overlap (no hit-under-miss), which is what makes per-core arbitration
// bounds like D = N·L−1 applicable. Hits ignore the port.
type InstTiming struct {
	Fetch     int
	FetchMiss bool
	Mem       int // ignored (forced to 1) for non-memory instructions
	MemMiss   bool
}

// TimingFn resolves the memory timing of instruction instIdx of block b.
type TimingFn func(b *cfg.Block, instIdx int) InstTiming

// Context is the pipeline state crossing a block boundary, expressed
// relative to the retirement time of the previous block's last
// instruction: when each stage becomes available and when each register's
// value becomes forwardable. Larger is worse; the join is pointwise max.
type Context struct {
	Avail    [NumStages]int
	RegReady [isa.NumRegs]int
	// Port is when the core's blocking miss port frees (relative).
	Port int
}

// EntryContext is the task-start context: everything available at t=0.
func EntryContext() Context { return Context{} }

func clamp(x int) int {
	if x < ctxClamp {
		return ctxClamp
	}
	return x
}

// BlockTiming is the result of executing one block from a context.
type BlockTiming struct {
	// Dur is the block's cost: retirement time of its last instruction,
	// relative to the predecessor's retirement (the context origin).
	Dur int
	// Out is the trailing context (relative to this block's retirement).
	Out Context
	// Resolve is the time (relative to the context origin) at which the
	// final control transfer is resolved in EX; successors reached via a
	// taken edge cannot fetch before Resolve + BranchPenalty.
	Resolve int
}

// ExecBlock evaluates the pipeline recurrence over the block's
// instructions starting from the given context. tim supplies the memory
// latencies. Empty (exit) blocks pass the context through at zero cost.
//
// Recurrence (blocking single-slot stages, forwarding from EX and MEM):
//
//	IFs(i)  = max(IDs(i-1), redirect)          IFd(i) = IFs(i)+fetch(i)
//	IDs(i)  = max(IFd(i),  EXs(i-1))
//	EXs(i)  = max(IDs(i)+1, MEMs(i-1), ready(srcs))
//	MEMs(i) = max(EXs(i)+ex(i), WBs(i-1))
//	WBs(i)  = max(MEMs(i)+mem(i), WBd(i-1))    WBd(i) = WBs(i)+1
//
// ExecBlock compiles the block's instructions on the fly and evaluates
// the same op loop the compiled model and the simulator run; callers
// pricing whole graphs repeatedly should Compile once and use
// Compiled.AnalyzeCosts instead.
func ExecBlock(pc Config, b *cfg.Block, tim TimingFn, in Context) BlockTiming {
	if b.IsExit() || b.Len() == 0 {
		return BlockTiming{Dur: 0, Out: in, Resolve: 0}
	}
	lt := pc.Latencies()
	var bt BlockTiming
	execOps(&bt, &lt, CompileOps(b.Insts()), b, tim, &in)
	return bt
}

func isRealTransfer(b *cfg.Block) bool {
	if b.IsExit() || b.Len() == 0 {
		return false
	}
	op := b.Insts()[b.Len()-1].Op
	return op == isa.RET || op == isa.J || op == isa.CALL
}

// CostResult carries the per-block worst-case costs in a dense vector
// indexed by block position (block IDs equal RPO positions), so
// downstream pricing — the IPET objective in particular — indexes a
// slice instead of hashing block IDs. The fixpoint's contexts stay in
// AnalyzeCosts's pooled scratch.
type CostResult struct {
	cost []int
}

// Costs returns the per-block worst-case cost vector indexed by block
// ID (exit blocks cost 0). Callers must treat it as read-only.
func (r *CostResult) Costs() []int { return r.cost }

// maxFixIter guards the context fixpoint (finite lattice; generous).
const maxFixIter = 10_000

// SrcRegs returns the registers an instruction reads.
func SrcRegs(in isa.Inst) []isa.Reg {
	switch in.Op {
	case isa.NOP, isa.HALT, isa.LI, isa.J, isa.CALL:
		return nil
	case isa.MOV:
		return []isa.Reg{in.Rs1}
	case isa.ADDI, isa.ANDI, isa.ORI, isa.SLLI, isa.SRLI, isa.SLTI, isa.LD:
		return []isa.Reg{in.Rs1}
	case isa.ST:
		return []isa.Reg{in.Rs1, in.Rs2}
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		return []isa.Reg{in.Rs1, in.Rs2}
	case isa.RET:
		return []isa.Reg{isa.RA}
	default: // three-register ALU
		return []isa.Reg{in.Rs1, in.Rs2}
	}
}

// DstReg returns the register an instruction writes, if any.
func DstReg(in isa.Inst) (isa.Reg, bool) {
	switch in.Op {
	case isa.NOP, isa.HALT, isa.ST, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.J, isa.RET:
		return 0, false
	case isa.CALL:
		return isa.RA, true
	default:
		if in.Rd == isa.R0 {
			return 0, false
		}
		return in.Rd, true
	}
}
