// Package sim is the cycle-accurate execution substrate of paratime: a
// deterministic multicore simulator with in-order pipelined cores, real
// LRU caches, a shared bus under pluggable arbitration, and a banked
// memory controller.
//
// Each core evaluates exactly the max-plus pipeline recurrence of
// internal/pipeline with concrete (hit/miss resolved) latencies, so every
// static block cost upper-bounds its simulated instances by construction;
// cores interact only through the shared bus and shared L2, which the
// simulator serializes in global event order. The simulator is the ground
// truth against which every analytical bound in the toolkit is validated
// (and the vehicle for the survey's point that measurement-based timing
// analysis under-estimates on parallel architectures).
package sim

import (
	"fmt"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/pipeline"
)

// CoreConfig describes one core and its private resources.
type CoreConfig struct {
	Name string
	Prog *isa.Program
	Pipe pipeline.Config
	L1I  cache.Config
	L1D  cache.Config
	// L2 overrides the system L2 geometry for this core's private view
	// (cache partitioning experiments); nil uses the system L2 as-is.
	L2 *cache.Config

	// InitRegs overrides initial architectural register values: entry i
	// seeds register i (entries beyond the register file and the
	// hardwired r0 are ignored). The exhaustive explorer enumerates
	// input assignments through this field, and a witness replays by
	// carrying the exact assignment here.
	InitRegs []int32
	// WarmI and WarmD pre-touch addresses through the core's L1I
	// respectively L1D (and its L2 view) before cycle 0, establishing an
	// enumerated initial cache state. Warming is purely an initial-state
	// choice: it consumes no simulated time and no bus transactions.
	WarmI []uint32
	WarmD []uint32
}

// System is a complete multicore configuration. It is a read-only
// description: Run builds every stateful device (caches, memory
// controller, bus session) afresh per call, so one System may be
// simulated by any number of goroutines at once.
type System struct {
	Cores []CoreConfig
	// L2 is the second-level cache; nil = misses go straight to memory.
	L2 *cache.Config
	// SharedL2 makes all cores hit one physical L2 (interference!);
	// otherwise each core gets a private L2 (its partition).
	SharedL2 bool
	// Bus arbitrates the path from the L1s to L2/memory; nil = private
	// path per core (no contention, zero wait). Run opens one session
	// of it per call.
	Bus arbiter.Arbiter
	// Mem is the memory device configuration.
	Mem memctrl.Config
}

// FromConfig assembles a multicore simulation where every core runs one
// task under the same single-core configuration. It is the one place
// the analysis-side core.SystemConfig is wired into simulation cores;
// the facade, the experiments, and the scenario runner all build their
// systems through it. Partitioning experiments that give cores distinct
// private L2 views use FromConfigPerCoreL2 instead.
func FromConfig(sys core.SystemConfig, mem memctrl.Config, bus arbiter.Arbiter, sharedL2 bool, tasks ...core.Task) System {
	s := System{L2: sys.Mem.L2, SharedL2: sharedL2, Bus: bus, Mem: mem}
	for _, t := range tasks {
		s.Cores = append(s.Cores, CoreConfig{
			Name: t.Name, Prog: t.Prog, Pipe: sys.Pipeline,
			L1I: sys.Mem.L1I, L1D: sys.Mem.L1D,
		})
	}
	return s
}

// FromConfigPerCoreL2 assembles a multicore simulation like FromConfig,
// but gives core i the private L2 geometry l2s[i] (nil falls back to the
// system L2): the simulation side of cache partitioning, where each
// core sees only its partition of the shared second level. The L2 is
// never shared, so partitioned cores cannot interfere.
func FromConfigPerCoreL2(sys core.SystemConfig, mem memctrl.Config, bus arbiter.Arbiter, tasks []core.Task, l2s []*cache.Config) System {
	s := FromConfig(sys, mem, bus, false, tasks...)
	for i := range s.Cores {
		if i < len(l2s) {
			s.Cores[i].L2 = l2s[i]
		}
	}
	return s
}

// CoreStats reports per-core observations.
type CoreStats struct {
	Cycles     int64 // retirement time of HALT
	Retired    uint64
	L1IHits    uint64
	L1IMisses  uint64
	L1DHits    uint64
	L1DMisses  uint64
	L2Hits     uint64
	L2Misses   uint64
	BusWaitMax int64
	BusWaitSum int64
	BusTrans   uint64
}

// Result is the outcome of one simulation.
type Result struct {
	Stats []CoreStats
}

// Cycles returns core i's completion time.
func (r *Result) Cycles(i int) int64 { return r.Stats[i].Cycles }

// MaxCycles returns the makespan.
func (r *Result) MaxCycles() int64 {
	var m int64
	for _, s := range r.Stats {
		if s.Cycles > m {
			m = s.Cycles
		}
	}
	return m
}

// phase of a core's in-flight instruction.
type phase uint8

const (
	phFetch phase = iota // waiting to resolve the instruction fetch
	phMem                // waiting to resolve the data access
)

// busNeed is a core's pending bus transaction.
type busNeed struct {
	addr uint32
	at   int64
	ph   phase
}

type coreRunner struct {
	id   int
	cfg  CoreConfig
	arch *isa.State
	l1i  *cache.LRU
	l1d  *cache.LRU
	l2   *cache.LRU // shared or private; nil without L2

	// Compiled pipeline model: the program's instructions lowered to the
	// same ops the static analysis executes, plus the config's EX-latency
	// table, so static and simulated pricing provably read identical
	// latencies.
	ops []pipeline.InstOp
	lt  pipeline.LatTable

	// maxCycles bounds simulated time; exceeding it while retiring aborts
	// the run (the guard that catches non-halting programs whose accesses
	// all hit in the L1s and thus never reach the bus-side check).
	maxCycles int64

	// Absolute pipeline recurrence state.
	prevIDs, prevEXs, prevMEMs, prevWBs, prevWBd int64
	ready                                        [isa.NumRegs]int64
	redirect                                     int64
	portFree                                     int64 // blocking miss port

	// In-flight instruction context.
	inst     isa.Inst
	op       pipeline.InstOp
	ifs, ifd int64
	mems     int64
	memLat   int64
	exd      int64 // EX completion (branch resolution)
	exsAbs   int64 // EX start

	stats CoreStats
	done  bool
}

// Runner execution: run() advances until a bus transaction is needed or
// the program halts; resume(doneAt) completes the pending access.
//
// The per-instruction recurrence evaluates the same compiled ops as
// pipeline.ExecBlock:
//
//	IFs = max(prevIDs, redirect); IFd = IFs + fetchLat
//	IDs = max(IFd, prevEXs); EXs = max(IDs+1, prevMEMs, ready[srcs])
//	MEMs = max(EXs+ex, prevWBs); WBs = max(MEMs+mem, prevWBd); WBd = WBs+1
func (c *coreRunner) run(sys *System) (*busNeed, error) {
	for !c.arch.Halted {
		switch {
		case c.inFlight():
			// resume() left a fully fetched instruction to finish.
		default:
			idx := c.arch.Prog.Index(c.arch.PC)
			if idx < 0 {
				return nil, fmt.Errorf("core %d: PC 0x%x outside text", c.id, c.arch.PC)
			}
			c.inst = c.arch.Prog.Insts[idx]
			c.op = c.ops[idx]
			c.ifs = max(c.prevIDs, c.redirect)
			if c.l1i.Access(c.arch.PC) {
				c.stats.L1IHits++
				c.ifd = c.ifs + int64(c.cfg.L1I.HitLatency)
			} else {
				c.stats.L1IMisses++
				// The blocking miss port serializes this core's
				// transactions: request when both the fetch is due and the
				// port is free.
				return &busNeed{addr: c.arch.PC, at: max(c.ifs, c.portFree), ph: phFetch}, nil
			}
		}
		need, err := c.finish(sys)
		if err != nil {
			return nil, err
		}
		if need != nil {
			return need, nil
		}
		// Every pass through here retired one instruction, advancing
		// simulated time by at least one cycle, so a non-halting program
		// trips the budget even when it never leaves the L1s. A program
		// that just halted is complete and keeps its result.
		if !c.arch.Halted && c.stats.Cycles > c.maxCycles {
			return nil, fmt.Errorf("sim: core %d exceeded %d cycles", c.id, c.maxCycles)
		}
	}
	c.done = true
	return nil, nil
}

// inFlight reports whether an instruction fetch has completed but the
// instruction has not retired (set by resume).
func (c *coreRunner) inFlight() bool { return c.ifd != 0 }

// finish completes the current instruction after its fetch resolved,
// possibly pausing at the data access.
func (c *coreRunner) finish(sys *System) (*busNeed, error) {
	in, op := c.inst, c.op
	if c.memLat == 0 { // data access not resolved yet
		ids := max(c.ifd, c.prevEXs)
		exs := max(ids+1, c.prevMEMs)
		for k := uint8(0); k < op.NSrc; k++ {
			if r := c.ready[op.Src[k]]; r > exs {
				exs = r
			}
		}
		ex := int64(c.lt[op.Class])
		c.mems = max(exs+ex, c.prevWBs)
		// Stash EX completion for redirect computation in retire().
		c.exd = exs + ex
		c.exsAbs = exs
		if op.Mem {
			addr := uint32(c.arch.Reg[in.Rs1] + in.Imm)
			if c.l1d.Access(addr) {
				c.stats.L1DHits++
				c.memLat = int64(c.cfg.L1D.HitLatency)
			} else {
				c.stats.L1DMisses++
				return &busNeed{addr: addr, at: max(c.mems, c.portFree), ph: phMem}, nil
			}
		} else {
			c.memLat = 1
		}
	}
	// Retire.
	wbs := max(c.mems+c.memLat, c.prevWBd)
	wbd := wbs + 1
	if op.HasDst {
		if op.Load {
			c.ready[op.Dst] = c.mems + c.memLat
		} else {
			c.ready[op.Dst] = c.exd
		}
	}
	c.prevIDs = max(c.ifd, c.prevEXs) // instruction left IF when entering ID
	c.prevEXs = c.exsAbs
	c.prevMEMs = c.mems
	c.prevWBs = wbs
	c.prevWBd = wbd

	prevPC := c.arch.PC
	if err := c.arch.Step(); err != nil {
		return nil, err
	}
	c.stats.Retired++
	if c.arch.PC != prevPC+isa.InstBytes && !c.arch.Halted {
		// Taken control transfer: redirect fetch.
		c.redirect = c.exd + int64(c.cfg.Pipe.BranchPenalty)
	}
	c.stats.Cycles = wbd
	// Clear in-flight markers.
	c.ifd, c.memLat, c.mems, c.exd, c.exsAbs = 0, 0, 0, 0, 0
	return nil, nil
}

// resume completes a bus transaction that finished at doneAt.
func (c *coreRunner) resume(need *busNeed, doneAt int64) {
	c.portFree = doneAt
	switch need.ph {
	case phFetch:
		c.ifd = doneAt
	case phMem:
		c.memLat = doneAt - c.mems
		if c.memLat < 1 {
			c.memLat = 1
		}
	}
}

// Run simulates the system to completion of every core.
func Run(sys System, maxCycles int64) (*Result, error) {
	if len(sys.Cores) == 0 {
		return nil, fmt.Errorf("sim: no cores")
	}
	ctrl := memctrl.New(sys.Mem)
	var bus arbiter.Session
	if sys.Bus != nil {
		bus = sys.Bus.NewSession()
	}
	var sharedL2 *cache.LRU
	if sys.L2 != nil && sys.SharedL2 {
		sharedL2 = cache.NewLRU(*sys.L2)
	}
	runners := make([]*coreRunner, len(sys.Cores))
	pending := make([]*busNeed, len(sys.Cores))
	for i, cc := range sys.Cores {
		r := &coreRunner{id: i, cfg: cc, arch: isa.NewState(cc.Prog), maxCycles: maxCycles}
		r.ops = pipeline.CompileOps(cc.Prog.Insts)
		r.lt = cc.Pipe.Latencies()
		r.l1i = cache.NewLRU(cc.L1I)
		r.l1d = cache.NewLRU(cc.L1D)
		switch {
		case sys.L2 == nil:
		case sys.SharedL2:
			r.l2 = sharedL2
		case cc.L2 != nil:
			r.l2 = cache.NewLRU(*cc.L2)
		default:
			r.l2 = cache.NewLRU(*sys.L2)
		}
		for reg, v := range cc.InitRegs {
			if reg > 0 && reg < isa.NumRegs {
				r.arch.Reg[reg] = v
			}
		}
		// Warm in core order (deterministic, including a shared L2).
		for _, a := range cc.WarmI {
			r.l1i.Access(a)
			if r.l2 != nil {
				r.l2.Access(a)
			}
		}
		for _, a := range cc.WarmD {
			r.l1d.Access(a)
			if r.l2 != nil {
				r.l2.Access(a)
			}
		}
		runners[i] = r
		need, err := r.run(&sys)
		if err != nil {
			return nil, err
		}
		pending[i] = need
	}
	for {
		// Pick the earliest pending transaction (ties by core id).
		sel := -1
		for i, need := range pending {
			if need == nil {
				continue
			}
			if sel < 0 || need.at < pending[sel].at {
				sel = i
			}
		}
		if sel < 0 {
			break // all cores done
		}
		need := pending[sel]
		r := runners[sel]
		if need.at > maxCycles {
			return nil, fmt.Errorf("sim: core %d exceeded %d cycles", sel, maxCycles)
		}
		grant := need.at
		if bus != nil {
			grant = bus.Request(sel, need.at)
		}
		wait := grant - need.at
		r.stats.BusTrans++
		r.stats.BusWaitSum += wait
		if wait > r.stats.BusWaitMax {
			r.stats.BusWaitMax = wait
		}
		// Service: L2 lookup then memory on miss.
		var done int64
		if r.l2 != nil {
			afterL2 := grant + int64(r.l2.Config().HitLatency)
			if r.l2.Access(need.addr) {
				r.stats.L2Hits++
				done = afterL2
			} else {
				r.stats.L2Misses++
				done = ctrl.Access(need.addr, afterL2)
			}
		} else {
			done = ctrl.Access(need.addr, grant)
		}
		r.resume(need, done)
		next, err := r.run(&sys)
		if err != nil {
			return nil, err
		}
		pending[sel] = next
	}
	res := &Result{Stats: make([]CoreStats, len(runners))}
	for i, r := range runners {
		if !r.done {
			return nil, fmt.Errorf("sim: core %d did not halt", i)
		}
		res.Stats[i] = r.stats
	}
	return res, nil
}
