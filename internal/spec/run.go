package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/explore"
	"paratime/internal/interfere"
	"paratime/internal/memctrl"
	"paratime/internal/parallel"
	"paratime/internal/partition"
	"paratime/internal/sched"
	"paratime/internal/sim"
	"paratime/internal/smt"
)

// defaultSimCycles bounds each simulation when SimSpec.MaxCycles is
// zero.
const defaultSimCycles = 500_000_000

// Report is the structured result of running one Scenario. It encodes to
// JSON (Encode) and renders as text (Fprint), and carries the same
// schema version as the scenario format.
type Report struct {
	Spec     int          `json:"spec"`
	Scenario string       `json:"scenario,omitempty"`
	Mode     string       `json:"mode"`
	Tasks    []TaskReport `json:"tasks"`
	// Sim holds per-core validation results when the scenario requested
	// simulation; entry order matches Tasks.
	Sim []SimReport `json:"sim,omitempty"`
	// Explore summarizes the exhaustive exploration when the scenario
	// requested one; the per-task exact worst and tightness live on the
	// TaskReport entries.
	Explore *ExploreReport `json:"explore,omitempty"`
}

// TaskReport is one task's analysis outcome.
type TaskReport struct {
	Name string `json:"name"`
	// WCET is the bound under the scenario's sharing regime.
	WCET int64 `json:"wcet"`
	// SoloWCET is the private-resource baseline (joint modes).
	SoloWCET int64 `json:"soloWCET,omitempty"`
	// DeltaVsSolo = WCET − SoloWCET (joint modes).
	DeltaVsSolo int64 `json:"deltaVsSolo,omitempty"`
	// RefinedWCET is the lifetime-refined bound (joint with lifetimes);
	// WCET carries the same value.
	RefinedWCET int64 `json:"refinedWCET,omitempty"`
	// BusBound is the per-core worst-case arbitration delay (mode bus).
	BusBound int `json:"busBound,omitempty"`
	// BypassedRefs counts references the single-usage bypass removed
	// from the shared L2 (joint mode, tasks with bypass: true).
	BypassedRefs int `json:"bypassedRefs,omitempty"`
	// LockedLines counts cache lines the locking policy pinned (mode
	// lock).
	LockedLines int `json:"lockedLines,omitempty"`
	// Classes summarizes cache classification counts per level.
	Classes string `json:"classes,omitempty"`
	// ExactWorst is the exact worst-case cycle count over every explored
	// state (explore block only). If the exploration was truncated it is
	// only a lower bound on the true exact worst.
	ExactWorst int64 `json:"exactWorst,omitempty"`
	// Tightness = ExactWorst / WCET; 1.0 means the static bound is
	// exact, above 1.0 means the bound is unsound.
	Tightness float64 `json:"tightness,omitempty"`
	// Witness is the explored start state realizing ExactWorst.
	Witness *WitnessReport `json:"witness,omitempty"`
}

// WitnessReport is a replayable exact-worst witness: seeding the listed
// inputs and initial cache pattern reproduces ExactWorst exactly.
type WitnessReport struct {
	// Inputs lists the full input assignment as "task.reg=value"
	// (all tasks of the co-run, not just the witnessed one).
	Inputs []string `json:"inputs,omitempty"`
	// Pattern is the initial cache state index (0 = cold).
	Pattern int `json:"pattern"`
	// Path is the witnessed task's input-dependent branch decision
	// string ('T' taken, 'N' not taken).
	Path string `json:"path,omitempty"`
}

// ExploreReport summarizes one exhaustive exploration.
type ExploreReport struct {
	// States is the number of priced (assignment, pattern) states.
	States int `json:"states"`
	// Paths is the number of distinct input-dependent paths observed.
	Paths int `json:"paths"`
	// MaxDecisions is the largest per-trace input-dependent branch
	// decision count.
	MaxDecisions int `json:"maxDecisions"`
	// Truncated reports a non-exhaustive enumeration (budget hit);
	// exact_worst values are then only lower bounds.
	Truncated bool `json:"truncated,omitempty"`
}

// SimReport is one core's validation outcome.
type SimReport struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
	// BusWaitMax is the longest observed arbitration wait (bus mode).
	BusWaitMax int64 `json:"busWaitMax,omitempty"`
	// Sound reports WCET >= Cycles for the matching task.
	Sound bool `json:"sound"`
}

// Encode renders the report as indented JSON.
//
//paralint:canonical the report wire format: fixed-tag structs, ordered slices, no maps
func (r *Report) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Fprint renders the report as aligned text.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "scenario %s  mode %s\n", orDash(r.Scenario), r.Mode)
	for i, t := range r.Tasks {
		fmt.Fprintf(w, "  %-16s WCET %10d", t.Name, t.WCET)
		if t.SoloWCET != 0 {
			fmt.Fprintf(w, "  solo %10d  delta %8d", t.SoloWCET, t.DeltaVsSolo)
		}
		if t.BusBound != 0 {
			fmt.Fprintf(w, "  bus bound %5d", t.BusBound)
		}
		if t.BypassedRefs != 0 {
			fmt.Fprintf(w, "  bypassed %d", t.BypassedRefs)
		}
		if t.LockedLines != 0 {
			fmt.Fprintf(w, "  locked %d", t.LockedLines)
		}
		if i < len(r.Sim) {
			s := r.Sim[i]
			verdict := "SOUND"
			if !s.Sound {
				verdict = "UNSOUND"
			}
			fmt.Fprintf(w, "  sim %10d  %s", s.Cycles, verdict)
		}
		if t.ExactWorst != 0 {
			fmt.Fprintf(w, "  exact %10d  tight %.4f", t.ExactWorst, t.Tightness)
		}
		if t.Classes != "" {
			fmt.Fprintf(w, "  %s", t.Classes)
		}
		fmt.Fprintln(w)
		if t.Witness != nil {
			fmt.Fprintf(w, "    witness pattern=%d path=%q", t.Witness.Pattern, t.Witness.Path)
			if len(t.Witness.Inputs) > 0 {
				fmt.Fprintf(w, " inputs=%s", strings.Join(t.Witness.Inputs, ","))
			}
			fmt.Fprintln(w)
		}
	}
	if e := r.Explore; e != nil {
		fmt.Fprintf(w, "  explore %d state(s)  %d path(s)  max decisions %d", e.States, e.Paths, e.MaxDecisions)
		if e.Truncated {
			fmt.Fprint(w, "  TRUNCATED")
		}
		fmt.Fprintln(w)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// mode is one row of the mode table. Payload checks and the String
// suffix stay switches in validateMode and String.
type mode struct {
	kind     string
	payloads []string // the ModeSpec payload names the kind takes
	needsL2  bool
	// run analyzes the tasks under the regime and fills rep.Tasks.
	run func(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error
	// machines builds the simulated machines sim and explore run on,
	// under the sharing regime the analysis assumed; nil if none.
	machines func(s *Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config) ([]machine, error)
}

// modes is the mode table, one row per kind and the only list of
// kinds. Its order is the order error messages list supported kinds in.
// Row functions must not refer to modes (an initialization cycle).
var modes = []mode{
	{kind: KindSolo, run: runSolo, machines: soloMachines},
	{kind: KindJoint, payloads: []string{"model", "lifetimes"}, needsL2: true, run: runJoint, machines: jointMachines},
	{kind: KindPartition, payloads: []string{"partition"}, needsL2: true, run: runPartition, machines: partitionMachines},
	{kind: KindLock, payloads: []string{"lock"}, needsL2: true, run: runLock},
	{kind: KindBus, payloads: []string{"bus"}, run: runBus, machines: busMachines},
	{kind: KindSMT, payloads: []string{"smt"}, run: runSMT, machines: smtMachines},
	{kind: KindPRET, payloads: []string{"pret"}, run: runPret, machines: pretMachines},
}

// modeOf returns the table row of kind, or nil for an unknown kind.
func modeOf(kind string) *mode {
	for i := range modes {
		if modes[i].kind == kind {
			return &modes[i]
		}
	}
	return nil
}

// Run executes a validated scenario: it materializes tasks and system,
// runs the mode's analysis (through the batch engine's worker pool and
// memo cache), optionally cross-checks the bounds in simulation and by
// exhaustive exploration on the mode's simulated machines, and
// assembles a Report. A nil engine gets a private one. Cancelling ctx
// makes Run return promptly with ctx.Err().
func Run(ctx context.Context, s *Scenario, eng *engine.Engine) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tasks, err := buildTasks(s.Tasks)
	if err != nil {
		return nil, err
	}
	return run(ctx, s, eng, tasks)
}

// buildTasks materializes every task of a scenario.
func buildTasks(specs []TaskSpec) ([]core.Task, error) {
	tasks := make([]core.Task, len(specs))
	for i := range specs {
		t, err := specs[i].BuildTask()
		if err != nil {
			return nil, err
		}
		tasks[i] = t
	}
	return tasks, nil
}

// run is Run after validation and the task build: tasks are s.Tasks
// materialized, and run only reads them.
func run(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task) (*Report, error) {
	if eng == nil {
		eng = engine.New(0)
	}
	sys, err := s.System.BuildSystem()
	if err != nil {
		return nil, err
	}
	m := modeOf(s.Mode.Kind)
	rep := &Report{Spec: Version, Scenario: s.Name, Mode: s.Mode.Kind}
	if err := m.run(ctx, s, eng, tasks, sys, rep); err != nil {
		return nil, err
	}
	if m.machines == nil || (s.Sim == nil && s.Explore == nil) {
		return rep, nil
	}
	ms, err := m.machines(s, tasks, sys, s.System.MemConfig())
	if err != nil {
		return nil, err
	}
	if s.Sim != nil {
		if err := runSim(ctx, s, eng, ms, rep); err != nil {
			return nil, err
		}
	}
	if s.Explore != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := runExplore(s, tasks, parallel.Resolve(sys.Parallelism), ms, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// machine is one simulated machine of a scenario: core c runs
// tasks[task[c]].
type machine struct {
	sys  sim.System
	task []int
}

// soloMachines gives each task a machine of its own.
func soloMachines(_ *Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config) ([]machine, error) {
	ms := make([]machine, len(tasks))
	for i := range tasks {
		ms[i] = machine{sim.FromConfig(sys, mem, nil, false, tasks[i]), []int{i}}
	}
	return ms, nil
}

// jointMachines co-runs every task over one shared L2. Without an
// arbiter each core keeps a private memory path, as the joint analysis
// assumes: it bounds cache interference only.
func jointMachines(_ *Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config) ([]machine, error) {
	return coRun(sim.FromConfig(sys, mem, nil, true, tasks...)), nil
}

// partitionMachines co-runs every task, each core confined to a private
// view of its partition — the isolation the partitioned analysis
// assumes.
func partitionMachines(s *Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config) ([]machine, error) {
	view, err := partitionView(s, sys, len(tasks))
	if err != nil {
		return nil, err
	}
	views := make([]*cache.Config, len(tasks))
	for i := range views {
		views[i] = &view
	}
	return coRun(sim.FromConfigPerCoreL2(sys, mem, nil, tasks, views)), nil
}

// busMachines co-runs every task behind the scenario's arbiter and one
// shared memory controller.
func busMachines(s *Scenario, tasks []core.Task, sys core.SystemConfig, mem memctrl.Config) ([]machine, error) {
	return coRun(sim.FromConfig(sys, mem, buildArbiter(s), false, tasks...)), nil
}

// smtMachines co-runs the threads on the partitioned-queue core, thread
// i on hardware thread i.
func smtMachines(s *Scenario, tasks []core.Task, _ core.SystemConfig, _ memctrl.Config) ([]machine, error) {
	return coRun(barreConfig(s).System(tasks...)), nil
}

// pretMachines co-runs the threads on the PRET core, thread i in slot i.
func pretMachines(s *Scenario, tasks []core.Task, _ core.SystemConfig, _ memctrl.Config) ([]machine, error) {
	return coRun(pretConfig(s).System(tasks...)), nil
}

// coRun wraps a co-run system as the one machine of a scenario, core i
// running task i.
func coRun(sys sim.System) []machine {
	task := make([]int, len(sys.Cores))
	for i := range task {
		task[i] = i
	}
	return []machine{{sys, task}}
}

// runSim simulates every machine and fills rep.Sim in task order.
func runSim(ctx context.Context, s *Scenario, eng *engine.Engine, ms []machine, rep *Report) error {
	res := make([]*sim.Result, len(ms))
	err := parallel.For(ctx, eng.Workers(), len(ms), func(k int) error {
		var err error
		res[k], err = sim.Run(ms[k].sys, simLimit(s, defaultSimCycles))
		return err
	})
	if err != nil {
		return err
	}
	for k, m := range ms {
		for c, i := range m.task {
			st := res[k].Stats[c]
			rep.Sim = append(rep.Sim, SimReport{
				Name: rep.Tasks[i].Name, Cycles: st.Cycles, BusWaitMax: st.BusWaitMax,
				Sound: rep.Tasks[i].WCET >= st.Cycles,
			})
		}
	}
	return nil
}

// runExplore executes the scenario's explore block after the static
// analysis filled rep.Tasks, attaching exact_worst, tightness and a
// witness per task plus the exploration summary. It explores each
// machine in turn: each task alone in mode solo, the full co-run in
// every other mode.
func runExplore(s *Scenario, tasks []core.Task, workers int, ms []machine, rep *Report) error {
	e := s.Explore
	b := explore.Budget{
		MaxBranchDecisions: e.MaxBranchDecisions,
		InitStates:         e.InitStates,
		MaxStates:          e.MaxStates,
		MaxSteps:           e.MaxSteps,
		MaxCycles:          simLimit(s, defaultSimCycles),
	}
	agg := &ExploreReport{}
	for _, m := range ms {
		// Map the declared inputs onto the machine's cores.
		var ins []explore.Input
		for _, in := range e.Inputs {
			r, ok := RegByName(in.Reg)
			if !ok {
				return fmt.Errorf("spec: explore input register %q", in.Reg)
			}
			for c, i := range m.task {
				if tasks[i].Name == in.Task {
					ins = append(ins, explore.Input{Core: c, Reg: r, Values: in.Values})
				}
			}
		}
		res, err := explore.ExplorePar(m.sys, ins, b, workers)
		if err != nil {
			if s.Mode.Kind == KindSolo {
				return fmt.Errorf("spec: explore task %q: %w", tasks[m.task[0]].Name, err)
			}
			return fmt.Errorf("spec: explore: %w", err)
		}
		for c, i := range m.task {
			w := res.Witness[c]
			wr := &WitnessReport{Pattern: w.Init.Pattern, Path: w.Path}
			for wc, assign := range w.Init.Regs {
				for _, rv := range assign {
					wr.Inputs = append(wr.Inputs,
						fmt.Sprintf("%s.%s=%d", tasks[m.task[wc]].Name, rv.Reg, rv.Value))
				}
			}
			t := &rep.Tasks[i]
			t.ExactWorst = res.ExactWorst[c]
			if t.WCET > 0 {
				t.Tightness = float64(t.ExactWorst) / float64(t.WCET)
			}
			t.Witness = wr
		}
		agg.States += res.States
		agg.Paths += res.Paths
		agg.MaxDecisions = max(agg.MaxDecisions, res.MaxDecisions)
		agg.Truncated = agg.Truncated || res.Truncated
	}
	rep.Explore = agg
	return nil
}

func simLimit(s *Scenario, fallback int64) int64 {
	if s.Sim != nil && s.Sim.MaxCycles > 0 {
		return s.Sim.MaxCycles
	}
	return fallback
}

func runSolo(ctx context.Context, _ *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
	return analyzeAll(ctx, eng, engine.Requests(tasks, sys), rep)
}

// analyzeAll analyzes every request through the engine and reports each
// task's WCET and cache classes.
func analyzeAll(ctx context.Context, eng *engine.Engine, reqs []engine.Request, rep *Report) error {
	as, err := eng.AnalyzeAll(ctx, reqs)
	if err != nil {
		return err
	}
	for i, a := range as {
		rep.Tasks = append(rep.Tasks, TaskReport{Name: reqs[i].Task.Name, WCET: a.WCET, Classes: a.ClassSummary()})
	}
	return nil
}

func conflictModel(name string) interfere.ConflictModel {
	if name == ModelDirectMapped {
		return interfere.DirectMapped
	}
	return interfere.AgeShift
}

func runJoint(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
	as, err := eng.PrepareAll(ctx, engine.Requests(tasks, sys))
	if err != nil {
		return err
	}
	bypassed := make([]int, len(tasks))
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
	if err := ctx.Err(); err != nil {
		return err
	}
	model := conflictModel(s.Mode.Model)
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
			rep.Tasks = append(rep.Tasks, TaskReport{
				Name: tasks[i].Name, WCET: res.RefinedWCET[i],
				SoloWCET: res.SoloWCET[i], DeltaVsSolo: res.RefinedWCET[i] - res.SoloWCET[i],
				RefinedWCET: res.RefinedWCET[i], BypassedRefs: bypassed[i],
				Classes: as[i].ClassSummary(),
			})
		}
	} else {
		res, err := interfere.AnalyzeJoint(as, model)
		if err != nil {
			return err
		}
		for i := range tasks {
			rep.Tasks = append(rep.Tasks, TaskReport{
				Name: tasks[i].Name, WCET: res.JointWCET[i],
				SoloWCET: res.SoloWCET[i], DeltaVsSolo: res.JointWCET[i] - res.SoloWCET[i],
				BypassedRefs: bypassed[i], Classes: as[i].ClassSummary(),
			})
		}
	}
	return nil
}

// partitionView computes the private L2 view of a validated
// partition-mode scenario.
func partitionView(s *Scenario, sys core.SystemConfig, nTasks int) (cache.Config, error) {
	p := s.Mode.Partition
	var view cache.Config
	var err error
	switch p.Scheme {
	case PartTask:
		view, err = partition.SetPartition(*sys.Mem.L2, nTasks)
	case PartCore:
		view, err = partition.SetPartition(*sys.Mem.L2, p.Cores)
	case PartWays:
		view, err = partition.Columnize(*sys.Mem.L2, p.Ways)
	case PartBanks:
		view, err = partition.Bankize(*sys.Mem.L2, p.Banks, p.TotalBanks)
	}
	if err != nil {
		return view, fmt.Errorf("spec: %w", err)
	}
	return view, nil
}

// runPartition is solo on the partition view of the L2.
func runPartition(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
	view, err := partitionView(s, sys, len(tasks))
	if err != nil {
		return err
	}
	sys.Mem.L2 = &view
	return runSolo(ctx, s, eng, tasks, sys, rep)
}

func runLock(ctx context.Context, s *Scenario, _ *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
	l := s.Mode.Lock
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		var res *partition.LockResult
		var err error
		if l.Policy == LockStatic {
			res, err = partition.StaticLock(t, sys, l.BudgetLines)
		} else {
			res, err = partition.DynamicLock(t, sys, l.BudgetLines)
		}
		if err != nil {
			return fmt.Errorf("spec: lock on task %q: %w", t.Name, err)
		}
		rep.Tasks = append(rep.Tasks, TaskReport{Name: t.Name, WCET: res.WCET, LockedLines: len(res.Locked)})
	}
	return nil
}

// buildArbiter materializes the bus arbiter of a validated bus-mode
// scenario.
func buildArbiter(s *Scenario) arbiter.Arbiter {
	b := s.Mode.Bus
	lat := s.effectiveBusLatency()
	switch b.Policy {
	case BusTDMA:
		slots := make([]arbiter.Slot, len(b.Slots))
		for i, sl := range b.Slots {
			slots[i] = arbiter.Slot{Owner: sl.Owner, Len: sl.Len}
		}
		return arbiter.NewTDMA(slots, lat)
	case BusMBBA:
		return arbiter.NewMultiBandwidth(b.Weights, lat)
	default: // roundrobin
		n := b.Cores
		if n == 0 {
			n = len(s.Tasks)
		}
		return arbiter.NewRoundRobin(n, lat)
	}
}

func runBus(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, sys core.SystemConfig, rep *Report) error {
	arb := buildArbiter(s)
	reqs := make([]engine.Request, len(tasks))
	for i, t := range tasks {
		sysI := sys
		sysI.Mem.BusDelay = arb.Bound(i)
		reqs[i] = engine.Request{Task: t, Sys: sysI}
	}
	if err := analyzeAll(ctx, eng, reqs, rep); err != nil {
		return err
	}
	for i := range rep.Tasks {
		rep.Tasks[i].BusBound = arb.Bound(i)
	}
	return nil
}

func barreConfig(s *Scenario) smt.BarreConfig {
	return smt.BarreConfig{Threads: s.Mode.SMT.Threads, FULatency: s.Mode.SMT.FULatency, MemLatency: s.Mode.SMT.MemLatency}
}

func pretConfig(s *Scenario) smt.PretConfig {
	return smt.PretConfig{Threads: s.Mode.PRET.Threads, WheelWindow: s.Mode.PRET.WheelWindow, MemLatency: s.Mode.PRET.MemLatency}
}

func runSMT(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, _ core.SystemConfig, rep *Report) error {
	cfg := barreConfig(s)
	return runThreads(ctx, eng, tasks, rep, func(i int) (int64, error) { return cfg.AnalyzeWCET(tasks[i].Prog, tasks[i].Facts) })
}

func runPret(ctx context.Context, s *Scenario, eng *engine.Engine, tasks []core.Task, _ core.SystemConfig, rep *Report) error {
	cfg := pretConfig(s)
	return runThreads(ctx, eng, tasks, rep, func(i int) (int64, error) {
		b, err := cfg.AnalyzeWCET(tasks[i].Prog, tasks[i].Facts)
		// Thread i's first pipeline slot arrives at cycle i, so its
		// completion time includes that fixed phase offset on top of the
		// phase-independent per-thread bound.
		return b + int64(i), err
	})
}

// runThreads reports the per-thread bounds of a multithreaded core,
// computed in parallel by bound.
func runThreads(ctx context.Context, eng *engine.Engine, tasks []core.Task, rep *Report, bound func(i int) (int64, error)) error {
	rep.Tasks = make([]TaskReport, len(tasks))
	return parallel.For(ctx, eng.Workers(), len(tasks), func(i int) error {
		b, err := bound(i)
		rep.Tasks[i] = TaskReport{Name: tasks[i].Name, WCET: b}
		return err
	})
}
