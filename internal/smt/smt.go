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
//
// The PRET and Barre cores simulate on sim.Run: System builds each as a
// machine of fixed-cost cores (sim.FixedCost) sharing one arbitrated port.
package smt

import (
	"cmp"
	"fmt"
	"math"

	"paratime/internal/arbiter"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/flow"
	"paratime/internal/ipet"
	"paratime/internal/isa"
	"paratime/internal/sim"
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

// Validate checks the geometry. The wheel window must fit one access.
func (c PretConfig) Validate() error {
	if c.Threads <= 0 || c.WheelWindow < c.MemLatency || c.MemLatency <= 0 {
		return fmt.Errorf("smt: bad PRET config %+v", c)
	}
	return nil
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
	wheelBound := int64(arbiter.NewWheel(c.Threads, c.WheelWindow).Bound(0)) // same for every thread
	return boundWCET(prog, facts, func(in isa.Inst) int64 {
		cost := int64(c.Threads) // one slot, i.e. one round, per instruction
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

// System is the PRET core as a sim machine: thread i runs tasks[i] on a
// fixed-cost core that issues one instruction per round of Threads
// cycles from its slot at cycle i; a memory operation waits for the
// thread's wheel window, then takes MemLatency. The wheel keeps state
// per thread only, so no thread's timing depends on another's.
func (c PretConfig) System(tasks ...core.Task) sim.System {
	s := sim.System{Bus: arbiter.NewWheel(c.Threads, c.WheelWindow)}
	for i, t := range tasks {
		s.Cores = append(s.Cores, sim.CoreConfig{Name: t.Name, Prog: t.Prog, Fixed: &sim.FixedCost{
			Start: int64(i), Issue: int64(c.Threads), Mem: int64(c.MemLatency)}})
	}
	return s
}

// SimulatePret runs progs on System's machine and returns each thread's
// completion cycle. It is kept only for perfbench's replay, until
// ROADMAP item 5 deletes it.
func (c PretConfig) SimulatePret(progs []*isa.Program, maxCycles uint64) ([]int64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(progs) > c.Threads {
		return nil, fmt.Errorf("smt: %d programs on %d hardware threads", len(progs), c.Threads)
	}
	return simulate(c.System, progs, maxCycles)
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

// System is the partitioned-queue core as a sim machine: thread i runs
// tasks[i] on a fixed-cost core whose every instruction holds the
// round-robin function unit FULatency cycles from its grant, plus
// MemLatency for a memory operation.
func (c BarreConfig) System(tasks ...core.Task) sim.System {
	s := sim.System{Bus: arbiter.NewRoundRobin(c.Threads, c.FULatency)}
	fu := &sim.FixedCost{AllPort: true, Hold: int64(c.FULatency), Mem: int64(c.MemLatency)}
	for _, t := range tasks {
		s.Cores = append(s.Cores, sim.CoreConfig{Name: t.Name, Prog: t.Prog, Fixed: fu})
	}
	return s
}

// SimulateBarre runs progs on System's machine and returns each
// thread's completion cycle. It is kept only for perfbench's replay,
// until ROADMAP item 5 deletes it.
func (c BarreConfig) SimulateBarre(progs []*isa.Program, maxCycles uint64) ([]int64, error) {
	if len(progs) == 0 || len(progs) > c.Threads {
		return nil, fmt.Errorf("smt: %d programs on %d threads", len(progs), c.Threads)
	}
	return simulate(c.System, progs, maxCycles)
}

// simulate runs progs on the machine system builds and returns each
// thread's completion cycle. A nil program, an empty PRET thread, runs
// as a lone halt, which never requests the wheel, and reports 0.
func simulate(system func(...core.Task) sim.System, progs []*isa.Program, maxCycles uint64) ([]int64, error) {
	out := make([]int64, len(progs))
	if len(progs) == 0 {
		return out, nil
	}
	tasks := make([]core.Task, len(progs))
	for i, p := range progs {
		tasks[i].Prog = cmp.Or(p, idleThread)
	}
	res, err := sim.Run(system(tasks...), int64(min(maxCycles, math.MaxInt64)))
	if err != nil {
		return nil, err
	}
	for i, p := range progs {
		if p != nil {
			out[i] = res.Cycles(i)
		}
	}
	return out, nil
}

var idleThread = isa.MustAssemble("idle", "halt")

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
