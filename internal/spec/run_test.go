package spec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/explore"
	"paratime/internal/interfere"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/partition"
	"paratime/internal/workload"
)

func mustScenario(t *testing.T, name string, tasks []core.Task, mode ModeSpec, sim *SimSpec) *Scenario {
	t.Helper()
	ts, err := TasksToSpec(tasks)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Spec: Version, Name: name, Tasks: ts, System: DefaultSystemSpec(), Mode: mode, Sim: sim}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunSoloMatchesDirect: the scenario path must reproduce direct
// core.Analyze exactly.
func TestRunSoloMatchesDirect(t *testing.T) {
	tasks := workload.Suite()[:3]
	rep, err := Run(context.Background(), mustScenario(t, "solo", tasks, ModeSpec{Kind: KindSolo}, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		ref, err := core.Analyze(task, core.DefaultSystem())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks[i].WCET != ref.WCET {
			t.Errorf("%s: scenario WCET %d != direct %d", task.Name, rep.Tasks[i].WCET, ref.WCET)
		}
	}
}

// TestRunJointMatchesDirect: the scenario path must reproduce the
// engine's joint analysis exactly, including solo baselines and deltas.
func TestRunJointMatchesDirect(t *testing.T) {
	tasks := workload.Suite()[:3]
	rep, err := Run(context.Background(),
		mustScenario(t, "joint", tasks, ModeSpec{Kind: KindJoint, Model: ModelAgeShift}, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	as, err := engine.New(0).PrepareAll(context.Background(), engine.Requests(tasks, core.DefaultSystem()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := interfere.AnalyzeJoint(as, interfere.AgeShift)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if rep.Tasks[i].WCET != want.JointWCET[i] || rep.Tasks[i].SoloWCET != want.SoloWCET[i] {
			t.Errorf("%s: scenario joint/solo %d/%d != direct %d/%d", tasks[i].Name,
				rep.Tasks[i].WCET, rep.Tasks[i].SoloWCET, want.JointWCET[i], want.SoloWCET[i])
		}
		if rep.Tasks[i].DeltaVsSolo != rep.Tasks[i].WCET-rep.Tasks[i].SoloWCET {
			t.Errorf("%s: delta inconsistent", tasks[i].Name)
		}
	}
}

// TestRunLockMatchesDirect: the scenario path must reproduce the direct
// locking analyses exactly.
func TestRunLockMatchesDirect(t *testing.T) {
	task := workload.MemCopy(32, workload.Slot(0))
	for _, policy := range []string{LockStatic, LockDynamic} {
		rep, err := Run(context.Background(), mustScenario(t, "lock-"+policy, []core.Task{task},
			ModeSpec{Kind: KindLock, Lock: &LockSpec{Policy: policy, BudgetLines: 16}}, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		var want *partition.LockResult
		if policy == LockStatic {
			want, err = partition.StaticLock(task, core.DefaultSystem(), 16)
		} else {
			want, err = partition.DynamicLock(task, core.DefaultSystem(), 16)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks[0].WCET != want.WCET || rep.Tasks[0].LockedLines != len(want.Locked) {
			t.Errorf("%s: scenario %d/%d != direct %d/%d", policy,
				rep.Tasks[0].WCET, rep.Tasks[0].LockedLines, want.WCET, len(want.Locked))
		}
	}
}

// TestRunBusBoundsMonotonic: more cores on the bus must not tighten the
// victim's bound, and the reported per-core bound is the arbiter's.
func TestRunBusBoundsMonotonic(t *testing.T) {
	tasks := workload.Suite()[:2]
	prev := int64(0)
	for _, n := range []int{2, 4, 8} {
		rep, err := Run(context.Background(), mustScenario(t, "bus", tasks,
			ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin, Cores: n}}, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tasks[0].WCET < prev {
			t.Errorf("n=%d: victim WCET %d shrank below %d", n, rep.Tasks[0].WCET, prev)
		}
		prev = rep.Tasks[0].WCET
	}
}

// TestRunSimSoundness: every mode that supports simulation validation
// reports sound bounds on the sample workload.
func TestRunSimSoundness(t *testing.T) {
	tasks := workload.Suite()[:2]
	sim := &SimSpec{MaxCycles: 50_000_000}
	scs := []*Scenario{
		mustScenario(t, "solo", tasks, ModeSpec{Kind: KindSolo}, sim),
		mustScenario(t, "joint", tasks, ModeSpec{Kind: KindJoint, Model: ModelAgeShift}, sim),
		mustScenario(t, "bus", tasks, ModeSpec{Kind: KindBus, Bus: &BusSpec{Policy: BusRoundRobin}}, sim),
		mustScenario(t, "smt", tasks, ModeSpec{Kind: KindSMT, SMT: &SMTSpec{Threads: 4, FULatency: 2, MemLatency: 10}}, sim),
		mustScenario(t, "pret", tasks, ModeSpec{Kind: KindPRET, PRET: &PretSpec{Threads: 6, WheelWindow: 26, MemLatency: 20}}, sim),
	}
	for _, sc := range scs {
		rep, err := Run(context.Background(), sc, nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(rep.Sim) != len(tasks) {
			t.Fatalf("%s: %d sim entries for %d tasks", sc.Name, len(rep.Sim), len(tasks))
		}
		for i, sr := range rep.Sim {
			if !sr.Sound {
				t.Errorf("%s: task %s UNSOUND: WCET %d < sim %d", sc.Name, rep.Tasks[i].Name, rep.Tasks[i].WCET, sr.Cycles)
			}
		}
	}
}

// TestRunCanceledContext: a canceled context returns promptly with
// ctx.Err(), both before and during a run.
func TestRunCanceledContext(t *testing.T) {
	tasks := workload.Suite()
	sc := mustScenario(t, "solo", tasks, ModeSpec{Kind: KindSolo}, &SimSpec{MaxCycles: 500_000_000})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, sc, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pre-canceled Run took %v", d)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = Run(ctx, sc, nil)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Run returned %v, want nil or DeadlineExceeded", err)
	}
}

// TestReportEncode: the report round-trips through JSON with the schema
// version stamped.
func TestReportEncode(t *testing.T) {
	rep, err := Run(context.Background(),
		mustScenario(t, "solo", workload.Suite()[:1], ModeSpec{Kind: KindSolo}, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec != Version || len(back.Tasks) != 1 || back.Tasks[0].WCET != rep.Tasks[0].WCET {
		t.Errorf("report did not round-trip: %+v", back)
	}
}

// TestRunPartitionSim: partition mode now honors the sim block, co-running
// the tasks with each core confined to a private view of its L2 partition;
// the partitioned bounds must stay sound against that simulation and the
// analysis results must be identical to a run without simulation.
func TestRunPartitionSim(t *testing.T) {
	tasks := workload.Suite()[:2]
	mode := ModeSpec{Kind: KindPartition, Partition: &PartitionSpec{Scheme: PartTask}}
	plain, err := Run(context.Background(), mustScenario(t, "partition", tasks, mode, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Sim) != 0 {
		t.Fatalf("unexpected sim entries without a sim block: %+v", plain.Sim)
	}
	simmed, err := Run(context.Background(), mustScenario(t, "partition", tasks, mode,
		&SimSpec{MaxCycles: 50_000_000}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(simmed.Sim) != len(tasks) {
		t.Fatalf("%d sim entries for %d tasks", len(simmed.Sim), len(tasks))
	}
	for i := range tasks {
		if simmed.Tasks[i].WCET != plain.Tasks[i].WCET {
			t.Errorf("task %d: simulation changed the bound: %d vs %d",
				i, simmed.Tasks[i].WCET, plain.Tasks[i].WCET)
		}
		if !simmed.Sim[i].Sound {
			t.Errorf("task %s: UNSOUND partition WCET %d < simulated %d",
				simmed.Tasks[i].Name, simmed.Tasks[i].WCET, simmed.Sim[i].Cycles)
		}
		if simmed.Sim[i].Cycles <= 0 {
			t.Errorf("task %d: empty simulation result", i)
		}
	}
}

// TestCoreBasedBeatsTaskBased: 4 tasks on 2 cores under the task-based
// and core-based partition schemes. Core-based partitions are twice as
// large, so no task's WCET may be worse (Suhendra & Mitra's finding (i)).
func TestCoreBasedBeatsTaskBased(t *testing.T) {
	var tasks []core.Task
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("t%d", i)
		p := isa.MustAssemble(name, fmt.Sprintf(`
        li   r1, 30
        li   r3, %#x
loop:   ld   r2, 0(r3)
        add  r4, r4, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data %#x
        .word 5`, 0x8000+i*0x1000, 0x8000+i*0x1000))
		p.Rebase(uint32(0x1000 + i*0x1000))
		tasks = append(tasks, core.Task{Name: name, Prog: p})
	}
	sys := core.DefaultSystem()
	l2 := cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	run := func(p *PartitionSpec) *Report {
		t.Helper()
		sc := mustScenario(t, "partition-"+p.Scheme, tasks, ModeSpec{Kind: KindPartition, Partition: p}, nil)
		sc.System = SystemToSpec(sys, memctrl.DefaultConfig())
		rep, err := Run(context.Background(), sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	taskW := run(&PartitionSpec{Scheme: PartTask})
	coreW := run(&PartitionSpec{Scheme: PartCore, Cores: 2, Assign: []int{0, 0, 1, 1}})
	for i := range tasks {
		if coreW.Tasks[i].WCET > taskW.Tasks[i].WCET {
			t.Errorf("task %d: core-based %d worse than task-based %d", i, coreW.Tasks[i].WCET, taskW.Tasks[i].WCET)
		}
	}
}

// exploreSource is an input-dependent diamond: r1 selects between a
// multiply-heavy and a cheap loop body, so the exact worst case over
// r1 in {0,1} exceeds the default-input trace. The data base address
// is parameterized so co-run tasks stay address-disjoint (the joint
// analysis requires it).
const exploreSource = `
        li   r2, 6
        li   r6, %#x
loop:   beq  r1, r0, even
        mul  r4, r2, r2
        mul  r4, r4, r2
        j    join
even:   add  r4, r4, r2
join:   ld   r5, 0(r6)
        add  r4, r4, r5
        st   r4, 0(r6)
        addi r6, r6, 16
        addi r2, r2, -1
        bne  r2, r0, loop
        halt`

func exploreScenario(t *testing.T, name, kind string, tasks int) *Scenario {
	t.Helper()
	sc := &Scenario{Spec: Version, Name: name, System: DefaultSystemSpec(), Mode: ModeSpec{Kind: kind}}
	for i := 0; i < tasks; i++ {
		p := isa.MustAssemble(fmt.Sprintf("t%d", i), fmt.Sprintf(exploreSource, 0x8000+0x1000*i))
		p.Rebase(uint32(0x1000 * (i + 1)))
		ts, err := TaskToSpec(core.Task{Name: fmt.Sprintf("t%d", i), Prog: p})
		if err != nil {
			t.Fatal(err)
		}
		sc.Tasks = append(sc.Tasks, ts)
	}
	switch kind {
	case KindPartition:
		sc.Mode.Partition = &PartitionSpec{Scheme: PartTask}
	case KindBus:
		sc.Mode.Bus = &BusSpec{Policy: BusRoundRobin}
	}
	sc.Explore = &ExploreSpec{InitStates: 2}
	for i := 0; i < tasks; i++ {
		sc.Explore.Inputs = append(sc.Explore.Inputs,
			InputSpec{Task: fmt.Sprintf("t%d", i), Reg: "r1", Values: []int32{0, 1}})
	}
	sc.Sim = &SimSpec{MaxCycles: 10_000_000}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunExplore drives the explore block end to end under every
// supported mode: exact worst above the single trace, tightness in
// (0,1], a witness on every task, and a populated summary.
func TestRunExplore(t *testing.T) {
	for _, tc := range []struct {
		kind  string
		tasks int
	}{
		{KindSolo, 2}, {KindJoint, 2}, {KindPartition, 2}, {KindBus, 2},
	} {
		rep, err := Run(context.Background(), exploreScenario(t, "exp-"+tc.kind, tc.kind, tc.tasks), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if rep.Explore == nil {
			t.Fatalf("%s: no explore summary", tc.kind)
		}
		if rep.Explore.Truncated {
			t.Errorf("%s: unexpected truncation", tc.kind)
		}
		if rep.Explore.States == 0 || rep.Explore.Paths == 0 || rep.Explore.MaxDecisions == 0 {
			t.Errorf("%s: empty summary %+v", tc.kind, rep.Explore)
		}
		for i, tr := range rep.Tasks {
			if tr.ExactWorst <= 0 {
				t.Errorf("%s task %d: exact worst %d", tc.kind, i, tr.ExactWorst)
			}
			if tr.Tightness <= 0 || tr.Tightness > 1 {
				t.Errorf("%s task %d: tightness %v outside (0,1] — bound unsound or exploration broken",
					tc.kind, i, tr.Tightness)
			}
			if want := float64(tr.ExactWorst) / float64(tr.WCET); tr.Tightness != want {
				t.Errorf("%s task %d: tightness %v != exact/bound %v", tc.kind, i, tr.Tightness, want)
			}
			if tr.Witness == nil || len(tr.Witness.Inputs) == 0 {
				t.Errorf("%s task %d: missing witness", tc.kind, i)
			}
			// The exact worst dominates the single validated trace.
			if i < len(rep.Sim) && tr.ExactWorst < rep.Sim[i].Cycles {
				t.Errorf("%s task %d: exact worst %d below single trace %d",
					tc.kind, i, tr.ExactWorst, rep.Sim[i].Cycles)
			}
		}
	}
}

// TestRunExploreWitnessRoundTrip: the witness printed in the report is
// replayable — rebuilding the exploration start state from the report
// and replaying it on the scenario's simulated machine reproduces
// ExactWorst exactly.
func TestRunExploreWitnessRoundTrip(t *testing.T) {
	sc := exploreScenario(t, "exp-replay", KindBus, 2)
	rep, err := Run(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]core.Task, len(sc.Tasks))
	for i := range sc.Tasks {
		if tasks[i], err = sc.Tasks[i].BuildTask(); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := sc.System.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := modeOf(sc.Mode.Kind).machines(sc, tasks, sys, sc.System.MemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("bus mode built %d machines, want one co-run", len(ms))
	}
	simSys := ms[0].sys
	for ti, tr := range rep.Tasks {
		init := explore.InitState{Pattern: tr.Witness.Pattern, Regs: make([][]explore.RegValue, len(tasks))}
		for _, in := range tr.Witness.Inputs {
			var task, reg string
			var val int32
			dot := strings.IndexByte(in, '.')
			eq := strings.IndexByte(in, '=')
			task, reg = in[:dot], in[dot+1:eq]
			fmt.Sscanf(in[eq+1:], "%d", &val)
			r, ok := RegByName(reg)
			if !ok {
				t.Fatalf("witness register %q", reg)
			}
			for c := range tasks {
				if tasks[c].Name == task {
					init.Regs[c] = append(init.Regs[c], explore.RegValue{Reg: r, Value: val})
				}
			}
		}
		res, err := explore.Replay(simSys, init, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles(ti) != tr.ExactWorst {
			t.Errorf("task %d: witness replays to %d, want exactly %d", ti, res.Cycles(ti), tr.ExactWorst)
		}
	}
}
