package interfere

import (
	"fmt"
	"testing"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/isa"
	"paratime/internal/sched"
)

// mkTask builds a loop task at the given text/data base so co-scheduled
// tasks occupy disjoint address ranges.
func mkTask(t *testing.T, name string, base uint32, dataBase uint32, iters int) core.Task {
	t.Helper()
	src := fmt.Sprintf(`
        li   r1, %d
        li   r3, 0x%x
loop:   ld   r2, 0(r3)
        add  r4, r4, r2
        st   r4, 4(r3)
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data 0x%x
        .word 3 0
`, iters, dataBase, dataBase)
	p := isa.MustAssemble(name, src)
	p.Rebase(base)
	return core.Task{Name: name, Prog: p}
}

func sharedSys() core.SystemConfig {
	sys := core.DefaultSystem()
	l2 := cache.Config{Name: "L2", Sets: 16, Ways: 2, LineBytes: 32, HitLatency: 4}
	sys.Mem.L2 = &l2
	return sys
}

func prepare(t *testing.T, tasks ...core.Task) []*core.Analysis {
	t.Helper()
	var out []*core.Analysis
	for _, task := range tasks {
		a, err := core.Prepare(task, sharedSys())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ComputeWCET(); err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func TestJointNeverTightensSolo(t *testing.T) {
	as := prepare(t,
		mkTask(t, "a", 0x1000, 0x8000, 40),
		mkTask(t, "b", 0x2000, 0x9000, 40),
		mkTask(t, "c", 0x3000, 0xa000, 40),
	)
	for _, model := range []ConflictModel{DirectMapped, AgeShift} {
		res, err := AnalyzeJoint(prepare(t,
			mkTask(t, "a", 0x1000, 0x8000, 40),
			mkTask(t, "b", 0x2000, 0x9000, 40),
			mkTask(t, "c", 0x3000, 0xa000, 40)), model)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Names {
			if res.JointWCET[i] < res.SoloWCET[i] {
				t.Errorf("model %d task %s: joint %d < solo %d",
					model, res.Names[i], res.JointWCET[i], res.SoloWCET[i])
			}
		}
	}
	_ = as
}

func TestAgeShiftNoWorseThanDirectMapped(t *testing.T) {
	mk := func() []*core.Analysis {
		return prepare(t,
			mkTask(t, "a", 0x1000, 0x8000, 40),
			mkTask(t, "b", 0x2000, 0x9000, 40),
		)
	}
	dm, err := AnalyzeJoint(mk(), DirectMapped)
	if err != nil {
		t.Fatal(err)
	}
	as, err := AnalyzeJoint(mk(), AgeShift)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dm.Names {
		if as.JointWCET[i] > dm.JointWCET[i] {
			t.Errorf("task %s: age-shift %d worse than direct-mapped kill %d",
				dm.Names[i], as.JointWCET[i], dm.JointWCET[i])
		}
	}
}

func TestOverlappingAddressSpacesRejected(t *testing.T) {
	as := prepare(t,
		mkTask(t, "a", 0x1000, 0x8000, 10),
		mkTask(t, "b", 0x1000, 0x8000, 10), // same bases!
	)
	if err := Apply(as[0], as, AgeShift); err == nil {
		t.Fatal("aliased tasks accepted")
	}
}

func TestLifetimeRefinementTightens(t *testing.T) {
	// Three tasks where precedence forces b after a (cross-core), so the
	// refined analysis must drop a<->b conflicts.
	analyses := prepare(t,
		mkTask(t, "a", 0x1000, 0x8000, 40),
		mkTask(t, "b", 0x2000, 0x9000, 40),
		mkTask(t, "c", 0x3000, 0xa000, 40),
	)
	specs := []sched.TaskSpec{
		{Name: "a", Core: 0, Priority: 0},
		{Name: "b", Core: 1, Priority: 0, Deps: []int{0}},
		{Name: "c", Core: 2, Priority: 0},
	}
	res, err := AnalyzeWithLifetimes(analyses, specs, AgeShift)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Names {
		if res.RefinedWCET[i] > res.JointWCET[i] {
			t.Errorf("task %s: refinement worsened WCET %d > %d",
				res.Names[i], res.RefinedWCET[i], res.JointWCET[i])
		}
		if res.RefinedWCET[i] < res.SoloWCET[i] {
			t.Errorf("task %s: refined %d below solo %d",
				res.Names[i], res.RefinedWCET[i], res.SoloWCET[i])
		}
	}
}

func TestBypassReducesConflicts(t *testing.T) {
	// Task a has single-usage lines (straight-line loads outside loops);
	// bypassing them must shrink the conflicts seen by task b.
	aSrc := `
        li   r3, 0x8000
        ld   r2, 0(r3)
        ld   r4, 64(r3)
        ld   r5, 128(r3)
        ld   r6, 192(r3)
        halt
.data 0x8000
        .word 1`
	aProg := isa.MustAssemble("a", aSrc)
	bTask := mkTask(t, "b", 0x2000, 0x9000, 40)
	as := prepare(t, core.Task{Name: "a", Prog: aProg}, bTask)
	aA, aB := as[0], as[1]
	n, err := ApplyBypass(aA)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no single-usage refs bypassed")
	}
	// b against a-with-bypass must be no worse than b against a-without.
	asFresh := prepare(t, core.Task{Name: "a", Prog: aProg}, bTask)
	if err := Apply(asFresh[1], asFresh, AgeShift); err != nil {
		t.Fatal(err)
	}
	withoutBypass := asFresh[1].WCET
	if err := Apply(aB, []*core.Analysis{aA, aB}, AgeShift); err != nil {
		t.Fatal(err)
	}
	withBypass := aB.WCET
	if withBypass > withoutBypass {
		t.Errorf("bypass increased victim WCET: %d > %d", withBypass, withoutBypass)
	}
}

func TestSingleUsageExcludesLoops(t *testing.T) {
	task := mkTask(t, "loopy", 0x1000, 0x8000, 10)
	a := prepare(t, task)[0]
	single := SingleUsageLines(a)
	cfgL2 := a.L2.Cfg
	// The loop's load line must not be single-usage.
	for ln := range single {
		if cfgL2.SetOf(ln) == cfgL2.SetOf(cfgL2.LineOf(0x8000)) && ln == cfgL2.LineOf(0x8000) {
			t.Error("in-loop line marked single-usage")
		}
	}
}

func TestYieldJointAnalysis(t *testing.T) {
	threads := []YieldThread{
		{Name: "rx", Segments: []Segment{{Compute: 10, Stall: 20}, {Compute: 5, Stall: 20}}},
		{Name: "proc", Segments: []Segment{{Compute: 15, Stall: 10}, {Compute: 15, Stall: 10}}},
	}
	res, err := AnalyzeYield(threads)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCET <= 0 || res.WCET > res.SumSerial {
		t.Errorf("WCET %d outside (0, serial %d]", res.WCET, res.SumSerial)
	}
	// Overlap must actually help versus full serialization.
	if res.WCET == res.SumSerial {
		t.Errorf("interleaving hid no stalls: %d", res.WCET)
	}
	if res.States <= 0 {
		t.Error("no states counted")
	}
}

func TestYieldStateGrowth(t *testing.T) {
	mk := func(n, segs int) []YieldThread {
		var out []YieldThread
		for i := 0; i < n; i++ {
			th := YieldThread{Name: fmt.Sprintf("t%d", i)}
			for s := 0; s < segs; s++ {
				th.Segments = append(th.Segments, Segment{Compute: int64(3 + i), Stall: int64(7 + s)})
			}
			out = append(out, th)
		}
		return out
	}
	r2, err := AnalyzeYield(mk(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := AnalyzeYield(mk(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r3.States <= r2.States {
		t.Errorf("state count should grow with threads: %d vs %d", r2.States, r3.States)
	}
}
