// Package smt models the simultaneous-multithreading isolation schemes of
// the survey's §5.3 and §4.2:
//
//   - CarCore (Mische et al.): one hard real-time thread (HRT) with
//     absolute priority in every pipeline stage, so its WCET is computable
//     as if it ran alone; non-critical threads consume leftover slots.
//   - PRET (Lickly et al.): a thread-interleaved pipeline with one
//     fixed slot per thread per round and a memory wheel, giving every
//     thread timing that is independent of co-runners by construction.
//   - Barre et al.: several hard real-time threads with partitioned
//     instruction queues and round-robin-arbitrated function units,
//     giving each thread a workload-independent issue-delay bound — in
//     contrast to a shared-queue SMT, where a co-runner can block a
//     thread for an unbounded time.
package smt

import (
	"fmt"

	"paratime/internal/arbiter"
	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/ipet"
	"paratime/internal/isa"
)

// --- PRET ------------------------------------------------------------------

// PretConfig is a thread-interleaved core: Threads hardware threads each
// own one pipeline slot per round (a round is Threads cycles) and one
// memory-wheel window of WheelWindow cycles; off-chip accesses take
// MemLatency cycles once the window opens.
type PretConfig struct {
	Threads     int
	WheelWindow int
	MemLatency  int
}

// DefaultPret is the classic six-thread PRET arrangement.
func DefaultPret() PretConfig { return PretConfig{Threads: 6, WheelWindow: 26, MemLatency: 20} }

// Validate checks the geometry. The wheel window must fit one access.
func (c PretConfig) Validate() error {
	if c.Threads <= 0 || c.WheelWindow < c.MemLatency || c.MemLatency <= 0 {
		return fmt.Errorf("smt: bad PRET config %+v", c)
	}
	return nil
}

// wheel returns the arbiter modelling this configuration's memory wheel.
func (c PretConfig) wheel() *arbiter.TDMA {
	return arbiter.NewWheel(c.Threads, c.WheelWindow)
}

// instSlots returns how many of its own slots an instruction occupies
// before its long-latency part (replay model: the instruction holds its
// slot each round until complete).
func (c PretConfig) instCycles(in isa.Inst) int64 {
	// One slot per instruction; the round length is the per-instruction
	// cycle cost seen by a single thread.
	return int64(c.Threads)
}

// AnalyzeWCET computes a thread's WCET bound on the PRET core: every
// instruction costs one round; memory operations additionally wait for
// the thread's wheel window in the worst phase plus the access itself.
// No property of any co-running thread appears anywhere in the
// computation — the isolation the survey attributes to PRET.
func (c PretConfig) AnalyzeWCET(prog *isa.Program, facts *flow.Facts) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	wheelBound := int64(c.wheel().Bound(0)) // same for every thread
	return boundWCET(prog, facts, func(in isa.Inst) int64 {
		cost := c.instCycles(in)
		if in.IsMem() {
			cost += wheelBound + int64(c.MemLatency)
		}
		return cost
	})
}

// boundWCET builds prog's CFG, bounds its loops from facts and prices it
// through IPET with a per-instruction cost: the block cost is the sum of
// its instructions' costs.
func boundWCET(prog *isa.Program, facts *flow.Facts, instCost func(isa.Inst) int64) (int64, error) {
	g, err := cfg.Build(prog)
	if err != nil {
		return 0, err
	}
	if _, _, err := flow.BoundAll(g, facts); err != nil {
		return 0, err
	}
	cost := make([]int, len(g.Blocks)) // indexed by block ID
	for _, b := range g.Blocks {
		if b.IsExit() {
			continue
		}
		var bc int64
		for _, in := range b.Insts() {
			bc += instCost(in)
		}
		cost[b.ID] = int(bc)
	}
	var extra []flow.Constraint
	if facts != nil {
		extra = facts.Constraints
	}
	s, err := ipet.NewSkeleton(g, extra)
	if err != nil {
		return 0, err
	}
	res, err := s.Solve(cost, nil)
	if err != nil {
		return 0, err
	}
	return res.WCET, nil
}

// SimulatePret executes the given threads on the interleaved core and
// returns each thread's completion cycle. Thread i's timing depends only
// on its own instruction stream and its fixed slot/wheel phase — the
// function never reads one thread's state while timing another, which is
// exactly the hardware property PRET pays throughput for.
func (c PretConfig) SimulatePret(progs []*isa.Program, maxSteps uint64) ([]int64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(progs) > c.Threads {
		return nil, fmt.Errorf("smt: %d programs on %d hardware threads", len(progs), c.Threads)
	}
	out := make([]int64, len(progs))
	for tid, p := range progs {
		if p == nil {
			continue
		}
		wheel := c.wheel().NewSession()
		st := isa.NewState(p)
		now := int64(tid) // thread's first slot
		var steps uint64
		for !st.Halted {
			if steps >= maxSteps {
				return nil, fmt.Errorf("smt: thread %d exceeded %d steps", tid, maxSteps)
			}
			idx := p.Index(st.PC)
			if idx < 0 {
				return nil, fmt.Errorf("smt: thread %d PC 0x%x outside text", tid, st.PC)
			}
			in := p.Insts[idx]
			now += c.instCycles(in)
			if in.IsMem() {
				grant := wheel.Request(tid, now)
				now = grant + int64(c.MemLatency)
			}
			if err := st.Step(); err != nil {
				return nil, err
			}
			steps++
		}
		out[tid] = now
	}
	return out, nil
}

// --- CarCore ---------------------------------------------------------------

// CarCoreResult reports one CarCore simulation.
type CarCoreResult struct {
	// HRTCycles is the hard real-time thread's completion time; by
	// construction it equals the thread's solo execution time.
	HRTCycles int64
	// NHRTRetired counts how many instructions each non-critical thread
	// retired in the leftover issue slots before the HRT finished — the
	// quantity CarCore sacrifices for isolation.
	NHRTRetired []uint64
}

// SimulateCarCore runs the HRT at absolute priority: its timing is the
// solo timing (the caller provides it as soloCycles together with the
// HRT's retired-instruction count). Non-critical threads share the issue
// slots the HRT leaves empty, round-robin, one instruction per free
// slot. The function makes the isolation property explicit: nothing
// about the NHRTs can change HRTCycles.
func SimulateCarCore(soloCycles int64, hrtRetired uint64, nhrts []*isa.Program, maxSteps uint64) (*CarCoreResult, error) {
	res := &CarCoreResult{HRTCycles: soloCycles, NHRTRetired: make([]uint64, len(nhrts))}
	// Issue slots not used by the HRT: one per cycle minus the HRT's
	// retired instructions (each HRT instruction consumes one slot).
	free := soloCycles - int64(hrtRetired)
	if free < 0 {
		return nil, fmt.Errorf("smt: solo cycles %d below retired count %d", soloCycles, hrtRetired)
	}
	if len(nhrts) == 0 {
		return res, nil
	}
	states := make([]*isa.State, len(nhrts))
	for i, p := range nhrts {
		if p != nil {
			states[i] = isa.NewState(p)
		}
	}
	var steps uint64
	for slot := int64(0); slot < free; slot++ {
		advanced := false
		for off := 0; off < len(states); off++ {
			s := states[(int(slot)+off)%len(states)]
			if s == nil || s.Halted {
				continue
			}
			if steps >= maxSteps {
				return res, nil
			}
			if err := s.Step(); err != nil {
				return nil, err
			}
			res.NHRTRetired[(int(slot)+off)%len(states)]++
			steps++
			advanced = true
			break
		}
		if !advanced {
			break // all NHRTs done
		}
	}
	return res, nil
}

// --- Barre et al. (multiple HRTs) -------------------------------------------

// BarreConfig is an in-order SMT core supporting K hard real-time threads
// with partitioned instruction queues and a round-robin-arbitrated
// function unit of FULatency cycles; memory operations take MemLatency.
type BarreConfig struct {
	Threads    int
	FULatency  int
	MemLatency int
}

// IssueBound is the workload-independent per-instruction issue delay
// guaranteed by round-robin FU arbitration: (K−1)·FULatency extra cycles.
func (c BarreConfig) IssueBound() int { return (c.Threads - 1) * c.FULatency }

// AnalyzeWCET bounds a thread's completion time on the partitioned-queue
// core: every instruction pays its FU occupancy plus the round-robin
// issue bound; memory instructions add MemLatency. The bound holds for
// any co-running HRTs.
func (c BarreConfig) AnalyzeWCET(prog *isa.Program, facts *flow.Facts) (int64, error) {
	per := int64(c.FULatency + c.IssueBound())
	return boundWCET(prog, facts, func(in isa.Inst) int64 {
		if in.IsMem() {
			return per + int64(c.MemLatency)
		}
		return per
	})
}

// SimulateBarre runs K threads sharing one FU under round-robin
// arbitration with partitioned queues and returns per-thread completion
// cycles. Each thread issues its next instruction as soon as the FU
// grants it; grants serialize through an arbiter with the FU occupancy
// as its latency.
func (c BarreConfig) SimulateBarre(progs []*isa.Program, maxSteps uint64) ([]int64, error) {
	if len(progs) == 0 || len(progs) > c.Threads {
		return nil, fmt.Errorf("smt: %d programs on %d threads", len(progs), c.Threads)
	}
	fu := arbiter.NewRoundRobin(c.Threads, c.FULatency).NewSession()
	type thread struct {
		st    *isa.State
		ready int64
		done  bool
	}
	ths := make([]*thread, len(progs))
	for i, p := range progs {
		ths[i] = &thread{st: isa.NewState(p)}
	}
	var steps uint64
	for {
		// Pick the ready thread with the smallest ready time.
		sel := -1
		for i, th := range ths {
			if th.done {
				continue
			}
			if sel < 0 || th.ready < ths[sel].ready {
				sel = i
			}
		}
		if sel < 0 {
			break
		}
		th := ths[sel]
		if steps >= maxSteps {
			return nil, fmt.Errorf("smt: exceeded %d steps", maxSteps)
		}
		idx := th.st.Prog.Index(th.st.PC)
		if idx < 0 {
			return nil, fmt.Errorf("smt: thread %d bad PC", sel)
		}
		in := th.st.Prog.Insts[idx]
		grant := fu.Request(sel, th.ready)
		end := grant + int64(c.FULatency)
		if in.IsMem() {
			end += int64(c.MemLatency)
		}
		if err := th.st.Step(); err != nil {
			return nil, err
		}
		steps++
		th.ready = end
		if th.st.Halted {
			th.done = true
		}
	}
	out := make([]int64, len(ths))
	for i, th := range ths {
		out[i] = th.ready
	}
	return out, nil
}

// SharedQueueStarvation quantifies why shared instruction queues defeat
// WCET analysis (§2.2, §4.2): a co-runner stalled on a long-latency
// operation holds queue slots, blocking the victim's dispatch for the
// entire stall. The returned victim delay grows linearly with the
// co-runner's stall length — no workload-independent bound exists.
func SharedQueueStarvation(queueSlots int, victimInsts int, coRunnerStall int64) int64 {
	// The co-runner fills the queue, the victim gets one slot per
	// completed co-runner stall.
	if queueSlots <= 1 {
		return int64(victimInsts) * coRunnerStall
	}
	return int64(victimInsts) * coRunnerStall / int64(queueSlots-1)
}
