package experiments

import (
	"fmt"
	"slices"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/memctrl"
	"paratime/internal/spec"
	"paratime/internal/workload"
)

// Exporter builds the Scenario form of one experiment's analysis
// requests. An experiment may export several scenarios (e.g. one per
// co-runner count, or one per compared configuration).
type Exporter func() ([]*spec.Scenario, error)

// Exporters maps experiment ids to scenario constructors; together they
// cover every §3–§5 regime: solo, joint DirectMapped/AgeShift (with
// lifetimes and bypass), partitioning and locking,
// round-robin/TDMA/MBBA buses, SMT, and PRET.
//
// The runners of e1, e4–e9, e12, e13, e15 and e16 take every bound in
// their tables from spec.Run over these scenarios, or over variants of
// them: e5 runs prefixes of its task list, e6 drops the lifetimes, e7
// the bypass, and e15 runs its constructor at every co-runner count, of
// which the export keeps the two extremes. So `paratime run` on the
// exported set reproduces their WCET numbers exactly. (E16's
// shared-queue starvation rows are a closed form, not a bound.) E14
// takes its HRT bound from its export; its CarCore co-run simulation
// has no scenario form. E11's table is an offset-set computation over
// synthetic path stages; its export is the TDMA bus regime over real
// tasks.
//
// E2, e3, e10, e17 and e18 have no export: they are measurement
// campaigns or pure state-space computations with no per-task WCET
// request, and serializing them would need new Report fields.
var Exporters = map[string]Exporter{
	"e1":  exportE01,
	"e4":  exportE04,
	"e5":  exportE05,
	"e6":  exportE06,
	"e7":  exportE07,
	"e8":  exportE08,
	"e9":  exportE09,
	"e11": exportE11,
	"e12": exportE12,
	"e13": exportE13,
	"e14": exportE14,
	"e15": exportE15,
	"e16": exportE16,
}

// ExportableIDs lists the exportable experiment ids in run order.
func ExportableIDs() []string {
	ids := make([]string, 0, len(Exporters))
	for id := range Exporters {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int { return idOrder(a) - idOrder(b) })
	return ids
}

func idOrder(id string) int {
	for i, known := range IDs {
		if known == id {
			return i
		}
	}
	return len(IDs)
}

// Export builds the scenarios of one experiment id.
func Export(id string) ([]*spec.Scenario, error) {
	exp, ok := Exporters[id]
	if !ok {
		if _, known := All[id]; known {
			return nil, fmt.Errorf("experiment %s has no scenario form (measurement campaign or pure state-space computation)", id)
		}
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return exp()
}

// ExportAll builds every exportable scenario in run order.
func ExportAll() ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for _, id := range ExportableIDs() {
		scs, err := Export(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, scs...)
	}
	return out, nil
}

// scenario assembles one Scenario from live toolkit values.
func scenario(name string, tasks []core.Task, sys core.SystemConfig, mode spec.ModeSpec, sim *spec.SimSpec) (*spec.Scenario, error) {
	ts, err := spec.TasksToSpec(tasks)
	if err != nil {
		return nil, err
	}
	sc := &spec.Scenario{
		Spec:   spec.Version,
		Name:   name,
		Tasks:  ts,
		System: spec.SystemToSpec(sys, memctrl.DefaultConfig()),
		Mode:   mode,
		Sim:    sim,
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

func one(sc *spec.Scenario, err error) ([]*spec.Scenario, error) {
	if err != nil {
		return nil, err
	}
	return []*spec.Scenario{sc}, nil
}

// withExplore attaches an exhaustive-exploration request to a built
// scenario and re-validates. The explorable experiments use it to pair
// every static bound with an exact worst case over enumerated initial
// cache states (and declared input values, when the tasks have any).
func withExplore(sc *spec.Scenario, err error, e *spec.ExploreSpec) (*spec.Scenario, error) {
	if err != nil {
		return nil, err
	}
	sc.Explore = e
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// --- per-experiment constructors --------------------------------------------

// scenarioE01 is E1's request: the full suite, solo, simulation-checked,
// with the exhaustive-exploration oracle enumerating initial cache
// states (the suite programs are closed, so the input space is empty).
func scenarioE01() (*spec.Scenario, error) {
	sc, err := scenario("e1-solo-suite", workload.Suite(), defaultSys(),
		spec.ModeSpec{Kind: spec.KindSolo}, &spec.SimSpec{MaxCycles: 200_000_000})
	return withExplore(sc, err, &spec.ExploreSpec{InitStates: 4})
}

func exportE01() ([]*spec.Scenario, error) { return one(scenarioE01()) }

// e4SmallL1Sys is E4's system: tiny L1I, direct-mapped shared L2.
func e4SmallL1Sys() core.SystemConfig {
	sys := defaultSys()
	sys.Mem.L1I = cache.Config{Name: "L1I", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}
	dm := cache.Config{Name: "L2", Sets: 64, Ways: 1, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &dm
	return sys
}

// scenarioE04 is E4's request at one co-runner count. The co-runners
// are identical CRC kernels at disjoint bases; scenario task names must
// be unique, so each carries its slot index (names never enter the
// analysis).
func scenarioE04(n int) (*spec.Scenario, error) {
	tasks := []core.Task{bigLoopTask(40, 64)}
	for i := 0; i < n; i++ {
		co := workload.CRC(12, workload.Slot(i+1))
		co.Name = fmt.Sprintf("%s.%d", co.Name, i+1)
		tasks = append(tasks, co)
	}
	return scenario(fmt.Sprintf("e4-joint-directmapped-%dco", n), tasks, e4SmallL1Sys(),
		spec.ModeSpec{Kind: spec.KindJoint, Model: spec.ModelDirectMapped}, nil)
}

func exportE04() ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for n := 1; n <= 4; n++ {
		sc, err := scenarioE04(n)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func exportE05() ([]*spec.Scenario, error) {
	sys := defaultSys()
	sys.Mem.L1I = cache.Config{Name: "L1I", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	tasks := []core.Task{bigLoopTask(40, 64)}
	for i := 0; i < 4; i++ {
		co := workload.Thrasher(2048, 32, workload.Slot(i+1))
		co.Name = fmt.Sprintf("%s.%d", co.Name, i+1)
		tasks = append(tasks, co)
	}
	return one(scenario("e5-joint-ageshift-4thrashers", tasks, sys,
		spec.ModeSpec{Kind: spec.KindJoint, Model: spec.ModelAgeShift}, nil))
}

func exportE06() ([]*spec.Scenario, error) {
	sys := defaultSys()
	sys.Mem.L1I = cache.Config{Name: "L1I", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	// Bases 0x4000 apart alias onto the same L2 sets: every pair of
	// overlapping tasks fully conflicts, which is exactly when lifetime
	// separation pays off.
	tasks := []core.Task{
		bigLoopTaskAt(30, 48, 0x1000),
		bigLoopTaskAt(30, 48, 0x5000),
		bigLoopTaskAt(30, 48, 0x9000),
	}
	return one(scenario("e6-joint-lifetimes", tasks, sys,
		spec.ModeSpec{Kind: spec.KindJoint, Model: spec.ModelAgeShift,
			Lifetimes: []spec.LifetimeSpec{
				{Core: 0}, {Core: 1, Deps: []int{0}}, {Core: 2},
			}}, nil))
}

func exportE07() ([]*spec.Scenario, error) {
	sys := defaultSys()
	l2 := cache.Config{Name: "L2", Sets: 16, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	sys.Mem.L1I = cache.Config{Name: "L1I", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}
	// A task with single-usage straight-line loads placed two-deep on
	// the victim's L2 sets (two foreign lines exceed the 2-way
	// associativity), plus the loop victim itself.
	once := core.Task{Name: "once", Prog: mustAsm("once", `
        li   r3, 0x6000
        ld   r2, 0(r3)
        ld   r4, 64(r3)
        ld   r5, 0x200(r3)
        ld   r6, 0x240(r3)
        ld   r7, 0x400(r3)
        halt
.data 0x6000
        .word 1`)}
	once.Prog.Rebase(0x3000)
	victim := bigLoopTaskAt(30, 48, 0x1000)
	sc, err := scenario("e7-joint-bypass", []core.Task{once, victim}, sys,
		spec.ModeSpec{Kind: spec.KindJoint, Model: spec.ModelAgeShift}, nil)
	if err != nil {
		return nil, err
	}
	sc.Tasks[0].Bypass = true
	return []*spec.Scenario{sc}, nil
}

// e8Sys is E8's 4 KiB 4-way shared L2 system.
func e8Sys() core.SystemConfig {
	sys := defaultSys()
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	return sys
}

func e8Tasks() []core.Task {
	return []core.Task{
		workload.MemCopy(48, workload.Slot(0)),
		workload.CRC(12, workload.Slot(1)),
		workload.FIR(12, 4, workload.Slot(2)),
		workload.CountBits(6, workload.Slot(3)),
	}
}

// scenarioE08Partition is E8's partitioning comparison under one scheme.
func scenarioE08Partition(scheme string) (*spec.Scenario, error) {
	mode := spec.ModeSpec{Kind: spec.KindPartition}
	switch scheme {
	case spec.PartTask:
		mode.Partition = &spec.PartitionSpec{Scheme: spec.PartTask}
	case spec.PartCore:
		mode.Partition = &spec.PartitionSpec{Scheme: spec.PartCore, Cores: 2, Assign: []int{0, 0, 1, 1}}
	}
	return scenario("e8-partition-"+scheme, e8Tasks(), e8Sys(), mode, nil)
}

// scenarioE08Lock is E8's locking comparison under one policy.
func scenarioE08Lock(policy string) (*spec.Scenario, error) {
	return scenario("e8-lock-"+policy, []core.Task{phasedTask()}, e8Sys(),
		spec.ModeSpec{Kind: spec.KindLock, Lock: &spec.LockSpec{Policy: policy, BudgetLines: 40}}, nil)
}

func exportE08() ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for _, scheme := range []string{spec.PartTask, spec.PartCore} {
		sc, err := scenarioE08Partition(scheme)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	for _, policy := range []string{spec.LockStatic, spec.LockDynamic} {
		sc, err := scenarioE08Lock(policy)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func exportE09() ([]*spec.Scenario, error) {
	sys := defaultSys()
	sys.Mem.L1D = cache.Config{Name: "L1D", Sets: 2, Ways: 1, LineBytes: 16, HitLatency: 1}
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	tasks := append(workload.Suite()[:5], assocStressTask())
	col, err := scenario("e9-partition-ways", tasks, sys,
		spec.ModeSpec{Kind: spec.KindPartition, Partition: &spec.PartitionSpec{Scheme: spec.PartWays, Ways: 2}}, nil)
	if err != nil {
		return nil, err
	}
	bank, err := scenario("e9-partition-banks", tasks, sys,
		spec.ModeSpec{Kind: spec.KindPartition, Partition: &spec.PartitionSpec{Scheme: spec.PartBanks, Banks: 2, TotalBanks: 4}}, nil)
	if err != nil {
		return nil, err
	}
	return []*spec.Scenario{col, bank}, nil
}

func exportE11() ([]*spec.Scenario, error) {
	tasks := []core.Task{
		workload.Fib(24, workload.Slot(0)),
		workload.CRC(8, workload.Slot(1)),
		workload.CountBits(4, workload.Slot(2)),
	}
	return one(scenario("e11-bus-tdma", tasks, defaultSys(),
		spec.ModeSpec{Kind: spec.KindBus, Bus: &spec.BusSpec{
			Policy:  spec.BusTDMA,
			Latency: 6,
			Slots:   []spec.SlotSpec{{Owner: 0, Len: 8}, {Owner: 1, Len: 10}, {Owner: 2, Len: 8}},
		}},
		&spec.SimSpec{MaxCycles: 500_000_000}))
}

// e12Tasks are the co-runner pool of the round-robin experiment.
func e12Tasks() []core.Task {
	return []core.Task{
		workload.MemCopy(48, workload.Slot(0)),
		workload.CRC(12, workload.Slot(1)),
		workload.FIR(12, 4, workload.Slot(2)),
		workload.CountBits(6, workload.Slot(3)),
		workload.Fib(24, workload.Slot(4)),
		workload.BSort(10, workload.Slot(5)),
		workload.MemCopy(32, workload.Slot(6)),
		workload.CRC(8, workload.Slot(7)),
	}
}

// scenarioE12 is E12's request at one core count, with the exploration
// oracle co-running all n cores from each enumerated initial state.
func scenarioE12(n int) (*spec.Scenario, error) {
	sc, err := scenario(fmt.Sprintf("e12-bus-roundrobin-%dcores", n), e12Tasks()[:n], defaultSys(),
		spec.ModeSpec{Kind: spec.KindBus, Bus: &spec.BusSpec{Policy: spec.BusRoundRobin, Cores: n}},
		&spec.SimSpec{MaxCycles: 500_000_000})
	return withExplore(sc, err, &spec.ExploreSpec{InitStates: 2})
}

func exportE12() ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for _, n := range []int{1, 2, 4, 8} {
		sc, err := scenarioE12(n)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func e13Tasks() []core.Task {
	return []core.Task{
		workload.MemCopy(64, workload.Slot(0)), // memory-heavy: weight 4
		workload.FIR(12, 4, workload.Slot(1)),
		workload.Fib(24, workload.Slot(2)),
		workload.CountBits(4, workload.Slot(3)),
	}
}

// scenarioE13RR and scenarioE13MBBA are E13's two compared regimes.
func scenarioE13RR() (*spec.Scenario, error) {
	return scenario("e13-bus-roundrobin", e13Tasks(), defaultSys(),
		spec.ModeSpec{Kind: spec.KindBus, Bus: &spec.BusSpec{Policy: spec.BusRoundRobin}}, nil)
}

func scenarioE13MBBA() (*spec.Scenario, error) {
	return scenario("e13-bus-mbba", e13Tasks(), defaultSys(),
		spec.ModeSpec{Kind: spec.KindBus, Bus: &spec.BusSpec{Policy: spec.BusMBBA, Weights: []int{4, 2, 1, 1}}},
		&spec.SimSpec{MaxCycles: 500_000_000})
}

func exportE13() ([]*spec.Scenario, error) {
	rr, err := scenarioE13RR()
	if err != nil {
		return nil, err
	}
	mbba, err := scenarioE13MBBA()
	if err != nil {
		return nil, err
	}
	return []*spec.Scenario{rr, mbba}, nil
}

// exportE14 serializes the CarCore HRT's bound request: by construction
// the HRT's WCET on CarCore is its solo WCET, so the scenario is a solo
// analysis of the hard real-time task.
func exportE14() ([]*spec.Scenario, error) {
	return one(scenario("e14-carcore-hrt-solo", []core.Task{workload.CRC(12, workload.Slot(0))},
		defaultSys(), spec.ModeSpec{Kind: spec.KindSolo}, &spec.SimSpec{MaxCycles: 200_000_000}))
}

// scenarioE15 is E15's request at one co-runner count.
func scenarioE15(n int) (*spec.Scenario, error) {
	tasks := []core.Task{workload.CRC(8, workload.Slot(0))}
	tasks = append(tasks, makeNHRTTasks(n)...)
	return scenario(fmt.Sprintf("e15-pret-%dco", n), tasks, defaultSys(),
		spec.ModeSpec{Kind: spec.KindPRET, PRET: &spec.PretSpec{Threads: 6, WheelWindow: 26, MemLatency: 20}},
		&spec.SimSpec{MaxCycles: 50_000_000})
}

func exportE15() ([]*spec.Scenario, error) {
	var out []*spec.Scenario
	for _, n := range []int{0, 5} {
		sc, err := scenarioE15(n)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func e16Tasks() []core.Task {
	return []core.Task{
		workload.Fib(24, workload.Slot(0)),
		workload.CRC(8, workload.Slot(1)),
		workload.CountBits(4, workload.Slot(2)),
		workload.MemCopy(16, workload.Slot(3)),
	}
}

// scenarioE16 is E16's partitioned-queue SMT request.
func scenarioE16() (*spec.Scenario, error) {
	return scenario("e16-smt-partitioned-queues", e16Tasks(), defaultSys(),
		spec.ModeSpec{Kind: spec.KindSMT, SMT: &spec.SMTSpec{Threads: 4, FULatency: 2, MemLatency: 10}},
		&spec.SimSpec{MaxCycles: 10_000_000})
}

func exportE16() ([]*spec.Scenario, error) { return one(scenarioE16()) }

// assocStressTask loads three scalars exactly one L2 way-group apart
// (see Exp09Bankization).
func assocStressTask() core.Task {
	return core.Task{Name: "assocstress", Prog: mustAsm("assocstress", `
        li   r1, 40
        li   r3, 0x8000
loop:   ld   r4, 0(r3)
        ld   r5, 0x400(r3)
        ld   r6, 0x800(r3)
        add  r7, r4, r5
        add  r7, r7, r6
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data 0x8000
        .word 1
.data 0x8400
        .word 2
.data 0x8800
        .word 3`)}
}
