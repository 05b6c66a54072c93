package main

import (
	"fmt"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/explore"
	"paratime/internal/flow"
	"paratime/internal/interfere"
	"paratime/internal/ipet"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/parallel"
	"paratime/internal/partition"
	"paratime/internal/pipeline"
	"paratime/internal/sched"
	"paratime/internal/sim"
	"paratime/internal/smt"
	"paratime/internal/spec"
)

// Simulation limits spec.Run applies when a scenario's sim block leaves
// MaxCycles at zero.
const (
	defaultSimCycles = 500_000_000
	defaultSMTSteps  = 10_000_000
	defaultPretSteps = 50_000_000
)

// replayer re-executes spec.Run's dispatch for one scenario through the
// public layer functions, with a span around each call. Its memo mirrors
// the engine's Prepare memo, so a replay prepares exactly what the
// untraced op prepared. The report it builds must equal spec.Run's byte
// for byte; a difference is a bug in the replay, not a result.
type replayer struct {
	tr   *tracer
	memo map[string]*core.Analysis
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr, memo: map[string]*core.Analysis{}}
}

func (r *replayer) run(s *spec.Scenario) (*spec.Report, error) {
	if err := r.tr.do("spec.decode", s.Validate); err != nil {
		return nil, err
	}
	var tasks []core.Task
	var sys core.SystemConfig
	err := r.tr.do("isa.build", func() error {
		for i := range s.Tasks {
			t, err := s.Tasks[i].BuildTask()
			if err != nil {
				return err
			}
			tasks = append(tasks, t)
		}
		var err error
		sys, err = s.System.BuildSystem()
		return err
	})
	if err != nil {
		return nil, err
	}
	mem := s.System.MemConfig()
	rep := &spec.Report{Spec: spec.Version, Scenario: s.Name, Mode: s.Mode.Kind}
	switch s.Mode.Kind {
	case spec.KindSolo:
		err = r.solo(s, tasks, sys, mem, rep)
	case spec.KindJoint:
		err = r.joint(s, tasks, sys, mem, rep)
	case spec.KindPartition:
		err = r.partition(s, tasks, sys, mem, rep)
	case spec.KindLock:
		err = r.lock(s, tasks, sys, rep)
	case spec.KindBus:
		err = r.bus(s, tasks, sys, mem, rep)
	case spec.KindSMT:
		err = r.smt(s, tasks, rep)
	case spec.KindPRET:
		err = r.pret(s, tasks, rep)
	default:
		err = fmt.Errorf("replay: unknown mode kind %q", s.Mode.Kind)
	}
	if err != nil {
		return nil, err
	}
	if s.Explore != nil {
		if err := r.explore(s, tasks, sys, mem, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// prepare is the engine's memoised Prepare: key, lookup, and on a miss
// core.Prepare followed by the re-run of its child layers.
func (r *replayer) prepare(task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	var key string
	_ = r.tr.do("engine.key", func() error { key = core.PrepareKey(task, sys); return nil })
	r.tr.add("engine.lookups", 1)
	a, hit := r.memo[key]
	if hit {
		r.tr.add("engine.hits", 1)
	} else {
		err := r.tr.do("core.prepare", func() (err error) {
			a, err = core.Prepare(task, sys)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := r.splitPrepare(task, sys, a); err != nil {
			return nil, err
		}
		r.memo[key] = a
	}
	var c *core.Analysis
	_ = r.tr.do("engine.clone", func() error { c = a.Clone(); return nil })
	c.Task, c.Sys = task, sys
	return c, nil
}

// splitPrepare re-runs core.Prepare's child layer calls on the same task
// so that each gets its own span; the L2 fixpoint runs on the merged
// stream Prepare built.
func (r *replayer) splitPrepare(task core.Task, sys core.SystemConfig, a *core.Analysis) error {
	id := r.tr.begin(dupSpan)
	defer r.tr.end(id)
	workers := parallel.Resolve(sys.Parallelism)
	var g *cfg.Graph
	if err := r.tr.do("cfg.build", func() (err error) { g, err = cfg.Build(task.Prog); return err }); err != nil {
		return err
	}
	var addrs map[flow.RefKey]flow.AddrRange
	err := r.tr.do("flow.bound", func() error {
		cp, ind, err := flow.BoundAll(g, task.Facts)
		if err == nil {
			addrs = flow.AnalyzeAddrs(g, cp, ind)
		}
		return err
	})
	if err != nil {
		return err
	}
	var extra []flow.Constraint
	if task.Facts != nil {
		extra = task.Facts.Constraints
	}
	if err := r.tr.do("ipet.skeleton", func() error { _, err := ipet.NewSkeleton(g, extra); return err }); err != nil {
		return err
	}
	_ = r.tr.do("pipeline.compile", func() error { pipeline.Compile(g); return nil })
	err = r.tr.do("cache.l1", func() error {
		if _, err := cache.AnalyzePar(g, cache.FetchStream(g), sys.Mem.L1I, workers); err != nil {
			return err
		}
		_, err := cache.AnalyzePar(g, cache.DataStream(g, addrs), sys.Mem.L1D, workers)
		return err
	})
	if err != nil || sys.Mem.L2 == nil {
		return err
	}
	return r.tr.do("cache.l2", func() error {
		_, err := cache.AnalyzeWithCACPar(a.G, a.Merged, *sys.Mem.L2, a.CAC, workers)
		return err
	})
}

// price is ComputeWCET with the ILP's work counters.
func (r *replayer) price(a *core.Analysis) error {
	if err := r.tr.do("core.price", a.ComputeWCET); err != nil {
		return fmt.Errorf("task %s: %w", a.Task.Name, err)
	}
	r.tr.add("ilp.solves", 1)
	r.tr.add("ilp.pivots", float64(a.IPET.Pivots))
	r.tr.add("ilp.nodes", float64(a.IPET.Nodes))
	if a.IPET.FellBack {
		r.tr.add("ilp.fellback", 1)
	}
	return nil
}

func (r *replayer) analyze(task core.Task, sys core.SystemConfig) (*core.Analysis, error) {
	a, err := r.prepare(task, sys)
	if err != nil {
		return nil, err
	}
	return a, r.price(a)
}

func (r *replayer) simulate(sys sim.System, limit int64) (*sim.Result, error) {
	var res *sim.Result
	err := r.tr.do("sim", func() (err error) { res, err = sim.Run(sys, limit); return err })
	if err == nil {
		r.tr.add("sim.cycles", float64(res.MaxCycles()))
	}
	return res, err
}

func simLimit(s *spec.Scenario, fallback int64) int64 {
	if s.Sim != nil && s.Sim.MaxCycles > 0 {
		return s.Sim.MaxCycles
	}
	return fallback
}

func fillSim(rep *spec.Report, tasks []core.Task, cycles func(i int) int64, waitMax func(i int) int64) {
	for i, t := range tasks {
		sr := spec.SimReport{Name: t.Name, Cycles: cycles(i), Sound: rep.Tasks[i].WCET >= cycles(i)}
		if waitMax != nil {
			sr.BusWaitMax = waitMax(i)
		}
		rep.Sim = append(rep.Sim, sr)
	}
}

func (r *replayer) solo(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config, rep *spec.Report) error {
	for _, t := range tasks {
		a, err := r.analyze(t, sys)
		if err != nil {
			return err
		}
		rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: a.WCET, Classes: a.ClassSummary()})
	}
	if s.Sim == nil {
		return nil
	}
	cycles := make([]int64, len(tasks))
	for i, t := range tasks {
		res, err := r.simulate(sim.FromConfig(sys, mem, nil, false, t), simLimit(s, defaultSimCycles))
		if err != nil {
			return err
		}
		cycles[i] = res.Cycles(0)
	}
	fillSim(rep, tasks, func(i int) int64 { return cycles[i] }, nil)
	return nil
}

func (r *replayer) joint(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config, rep *spec.Report) error {
	as := make([]*core.Analysis, len(tasks))
	for i, t := range tasks {
		a, err := r.prepare(t, sys)
		if err != nil {
			return err
		}
		as[i] = a
	}
	model := interfere.AgeShift
	if s.Mode.Model == spec.ModelDirectMapped {
		model = interfere.DirectMapped
	}
	bypassed := make([]int, len(tasks))
	err := r.tr.do("interfere", func() error {
		for i := range s.Tasks {
			if !s.Tasks[i].Bypass {
				continue
			}
			n, err := interfere.ApplyBypass(as[i])
			if err != nil {
				return fmt.Errorf("spec: bypass on task %q: %w", tasks[i].Name, err)
			}
			bypassed[i] = n
		}
		if len(s.Mode.Lifetimes) > 0 {
			specs := make([]sched.TaskSpec, len(tasks))
			for i, l := range s.Mode.Lifetimes {
				specs[i] = sched.TaskSpec{Name: tasks[i].Name, Core: l.Core, Priority: l.Priority, Deps: append([]int(nil), l.Deps...)}
			}
			res, err := interfere.AnalyzeWithLifetimes(as, specs, model)
			if err != nil {
				return err
			}
			for i := range tasks {
				rep.Tasks = append(rep.Tasks, spec.TaskReport{
					Name: tasks[i].Name, WCET: res.RefinedWCET[i],
					SoloWCET: res.SoloWCET[i], DeltaVsSolo: res.RefinedWCET[i] - res.SoloWCET[i],
					RefinedWCET: res.RefinedWCET[i], BypassedRefs: bypassed[i],
					Classes: as[i].ClassSummary(),
				})
			}
			return nil
		}
		res, err := interfere.AnalyzeJoint(as, model)
		if err != nil {
			return err
		}
		for i := range tasks {
			rep.Tasks = append(rep.Tasks, spec.TaskReport{
				Name: tasks[i].Name, WCET: res.JointWCET[i],
				SoloWCET: res.SoloWCET[i], DeltaVsSolo: res.JointWCET[i] - res.SoloWCET[i],
				BypassedRefs: bypassed[i], Classes: as[i].ClassSummary(),
			})
		}
		return nil
	})
	if err != nil || s.Sim == nil {
		return err
	}
	res, err := r.simulate(sim.FromConfig(sys, mem, nil, true, tasks...), simLimit(s, defaultSimCycles))
	if err != nil {
		return err
	}
	fillSim(rep, tasks, res.Cycles, nil)
	return nil
}

func partitionView(s *spec.Scenario, sys core.SystemConfig, nTasks int) (cache.Config, error) {
	p := s.Mode.Partition
	switch p.Scheme {
	case spec.PartTask:
		return partition.SetPartition(*sys.Mem.L2, nTasks)
	case spec.PartCore:
		return partition.SetPartition(*sys.Mem.L2, p.Cores)
	case spec.PartWays:
		return partition.Columnize(*sys.Mem.L2, p.Ways)
	default:
		return partition.Bankize(*sys.Mem.L2, p.Banks, p.TotalBanks)
	}
}

func (r *replayer) partition(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config, rep *spec.Report) error {
	view, err := partitionView(s, sys, len(tasks))
	if err != nil {
		return err
	}
	sysP := sys
	sysP.Mem.L2 = &view
	for _, t := range tasks {
		a, err := r.analyze(t, sysP)
		if err != nil {
			return err
		}
		rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: a.WCET, Classes: a.ClassSummary()})
	}
	if s.Sim == nil {
		return nil
	}
	views := make([]*cache.Config, len(tasks))
	for i := range views {
		views[i] = &view
	}
	res, err := r.simulate(sim.FromConfigPerCoreL2(sys, mem, nil, tasks, views), simLimit(s, defaultSimCycles))
	if err != nil {
		return err
	}
	fillSim(rep, tasks, res.Cycles, nil)
	return nil
}

func (r *replayer) lock(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, rep *spec.Report) error {
	l := s.Mode.Lock
	for _, t := range tasks {
		var res *partition.LockResult
		err := r.tr.do("partition.lock", func() (err error) {
			if l.Policy == spec.LockStatic {
				res, err = partition.StaticLock(t, sys, l.BudgetLines)
			} else {
				res, err = partition.DynamicLock(t, sys, l.BudgetLines)
			}
			return err
		})
		if err != nil {
			return err
		}
		rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: res.WCET, LockedLines: len(res.Locked)})
	}
	return nil
}

// busArbiter builds the arbiter of a bus-mode scenario; its transaction
// latency is bus.latency or the full memory round trip.
func busArbiter(s *spec.Scenario) arbiter.Arbiter {
	b := s.Mode.Bus
	lat := b.Latency
	if lat <= 0 {
		lat = s.System.MemConfig().Bound()
		if s.System.L2 != nil {
			lat += s.System.L2.HitLatency
		}
	}
	switch b.Policy {
	case spec.BusTDMA:
		slots := make([]arbiter.Slot, len(b.Slots))
		for i, sl := range b.Slots {
			slots[i] = arbiter.Slot{Owner: sl.Owner, Len: sl.Len}
		}
		return arbiter.NewTDMA(slots, lat)
	case spec.BusMBBA:
		return arbiter.NewMultiBandwidth(b.Weights, lat)
	default:
		n := b.Cores
		if n == 0 {
			n = len(s.Tasks)
		}
		return arbiter.NewRoundRobin(n, lat)
	}
}

func (r *replayer) bus(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config, rep *spec.Report) error {
	arb := busArbiter(s)
	for i, t := range tasks {
		sysI := sys
		sysI.Mem.BusDelay = arb.Bound(i)
		a, err := r.analyze(t, sysI)
		if err != nil {
			return err
		}
		rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: a.WCET, BusBound: arb.Bound(i), Classes: a.ClassSummary()})
	}
	if s.Sim == nil {
		return nil
	}
	res, err := r.simulate(sim.FromConfig(sys, mem, arb, false, tasks...), simLimit(s, defaultSimCycles))
	if err != nil {
		return err
	}
	fillSim(rep, tasks, res.Cycles, func(i int) int64 { return res.Stats[i].BusWaitMax })
	return nil
}

func progsOf(tasks []core.Task) []*isa.Program {
	out := make([]*isa.Program, len(tasks))
	for i, t := range tasks {
		out[i] = t.Prog
	}
	return out
}

func (r *replayer) smt(s *spec.Scenario, tasks []core.Task, rep *spec.Report) error {
	c := smt.BarreConfig{Threads: s.Mode.SMT.Threads, FULatency: s.Mode.SMT.FULatency, MemLatency: s.Mode.SMT.MemLatency}
	return r.tr.do("smt", func() error {
		for _, t := range tasks {
			b, err := c.AnalyzeWCET(t.Prog, t.Facts)
			if err != nil {
				return err
			}
			rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: b})
		}
		if s.Sim == nil {
			return nil
		}
		times, err := c.SimulateBarre(progsOf(tasks), uint64(simLimit(s, defaultSMTSteps)))
		if err != nil {
			return err
		}
		fillSim(rep, tasks, func(i int) int64 { return times[i] }, nil)
		return nil
	})
}

func (r *replayer) pret(s *spec.Scenario, tasks []core.Task, rep *spec.Report) error {
	c := smt.PretConfig{Threads: s.Mode.PRET.Threads, WheelWindow: s.Mode.PRET.WheelWindow, MemLatency: s.Mode.PRET.MemLatency}
	return r.tr.do("smt", func() error {
		for i, t := range tasks {
			b, err := c.AnalyzeWCET(t.Prog, t.Facts)
			if err != nil {
				return err
			}
			// Thread i's first pipeline slot arrives at cycle i.
			rep.Tasks = append(rep.Tasks, spec.TaskReport{Name: t.Name, WCET: b + int64(i)})
		}
		if s.Sim == nil {
			return nil
		}
		times, err := c.SimulatePret(progsOf(tasks), uint64(simLimit(s, defaultPretSteps)))
		if err != nil {
			return err
		}
		fillSim(rep, tasks, func(i int) int64 { return times[i] }, nil)
		return nil
	})
}

func (r *replayer) explore(s *spec.Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config, rep *spec.Report) error {
	e := s.Explore
	budget := explore.Budget{
		MaxBranchDecisions: e.MaxBranchDecisions,
		InitStates:         e.InitStates,
		MaxStates:          e.MaxStates,
		MaxSteps:           e.MaxSteps,
		MaxCycles:          simLimit(s, defaultSimCycles),
	}
	workers := parallel.Resolve(sys.Parallelism)
	taskIdx := map[string]int{}
	for i, t := range tasks {
		taskIdx[t.Name] = i
	}
	inputsFor := func(remap []int) ([]explore.Input, error) {
		var out []explore.Input
		for _, in := range e.Inputs {
			reg, ok := spec.RegByName(in.Reg)
			if !ok {
				return nil, fmt.Errorf("replay: explore input register %q", in.Reg)
			}
			for c, ti := range remap {
				if taskIdx[in.Task] == ti {
					out = append(out, explore.Input{Core: c, Reg: reg, Values: in.Values})
				}
			}
		}
		return out, nil
	}
	record := func(i int, exact int64, w explore.Witness, remap []int) {
		rep.Tasks[i].ExactWorst = exact
		if rep.Tasks[i].WCET > 0 {
			rep.Tasks[i].Tightness = float64(exact) / float64(rep.Tasks[i].WCET)
		}
		wr := &spec.WitnessReport{Pattern: w.Init.Pattern, Path: w.Path}
		for c, assign := range w.Init.Regs {
			for _, rv := range assign {
				wr.Inputs = append(wr.Inputs, fmt.Sprintf("%s.%s=%d", tasks[remap[c]].Name, rv.Reg, rv.Value))
			}
		}
		rep.Tasks[i].Witness = wr
	}
	run := func(sys sim.System, ins []explore.Input) (*explore.Result, error) {
		var res *explore.Result
		err := r.tr.do("explore", func() (err error) {
			res, err = explore.ExplorePar(sys, ins, budget, workers)
			return err
		})
		if err == nil {
			r.tr.add("explore.states", float64(res.States))
		}
		return res, err
	}

	agg := &spec.ExploreReport{}
	if s.Mode.Kind == spec.KindSolo {
		for i := range tasks {
			ins, err := inputsFor([]int{i})
			if err != nil {
				return err
			}
			res, err := run(sim.FromConfig(sys, mem, nil, false, tasks[i]), ins)
			if err != nil {
				return fmt.Errorf("spec: explore task %q: %w", tasks[i].Name, err)
			}
			record(i, res.ExactWorst[0], res.Witness[0], []int{i})
			agg.States += res.States
			agg.Paths += res.Paths
			agg.MaxDecisions = max(agg.MaxDecisions, res.MaxDecisions)
			agg.Truncated = agg.Truncated || res.Truncated
		}
		rep.Explore = agg
		return nil
	}
	var simSys sim.System
	switch s.Mode.Kind {
	case spec.KindJoint:
		simSys = sim.FromConfig(sys, mem, nil, true, tasks...)
	case spec.KindPartition:
		view, err := partitionView(s, sys, len(tasks))
		if err != nil {
			return err
		}
		views := make([]*cache.Config, len(tasks))
		for i := range views {
			views[i] = &view
		}
		simSys = sim.FromConfigPerCoreL2(sys, mem, nil, tasks, views)
	case spec.KindBus:
		simSys = sim.FromConfig(sys, mem, busArbiter(s), false, tasks...)
	default:
		return fmt.Errorf("replay: explore is not supported in mode %q", s.Mode.Kind)
	}
	remap := make([]int, len(tasks))
	for i := range remap {
		remap[i] = i
	}
	ins, err := inputsFor(remap)
	if err != nil {
		return err
	}
	res, err := run(simSys, ins)
	if err != nil {
		return fmt.Errorf("spec: explore: %w", err)
	}
	for i := range tasks {
		record(i, res.ExactWorst[i], res.Witness[i], remap)
	}
	agg.States, agg.Paths, agg.MaxDecisions, agg.Truncated = res.States, res.Paths, res.MaxDecisions, res.Truncated
	rep.Explore = agg
	return nil
}
