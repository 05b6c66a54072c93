package smt_test

import (
	"fmt"
	"slices"
	"testing"

	"paratime/internal/arbiter"
	"paratime/internal/experiments"
	"paratime/internal/isa"
	"paratime/internal/smt"
	"paratime/internal/spec"
)

// pretOracle is the PRET core's original private simulator: each thread
// runs alone, one round per instruction from its slot at cycle tid, and
// memory operations wait for the thread's wheel window.
func pretOracle(c smt.PretConfig, progs []*isa.Program, maxSteps uint64) ([]int64, error) {
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
		wheel := arbiter.NewWheel(c.Threads, c.WheelWindow).NewSession()
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
			now += int64(c.Threads)
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

// barreOracle is the partitioned-queue core's original private
// simulator: the ready thread with the smallest ready time (ties to the
// lower index) issues next through the round-robin function unit.
func barreOracle(c smt.BarreConfig, progs []*isa.Program, maxSteps uint64) ([]int64, error) {
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

// exportedPrograms returns the programs of the named exported scenario
// and the scenario itself.
func exportedPrograms(t *testing.T, id, name string) ([]*isa.Program, *spec.Scenario) {
	t.Helper()
	scs, err := experiments.Export(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Name != name {
			continue
		}
		progs := make([]*isa.Program, len(sc.Tasks))
		for i := range sc.Tasks {
			task, err := sc.Tasks[i].BuildTask()
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = task.Prog
		}
		return progs, sc
	}
	t.Fatalf("%s exports no scenario %q", id, name)
	return nil, nil
}

const oracleSteps = 10_000_000

// programSet is a named list of thread programs.
type programSet struct {
	name  string
	progs []*isa.Program
}

// testPrograms is a mix of the package's loop programs, memory-heavy and
// not, long enough that every thread count sees contention.
func testPrograms() []*isa.Program {
	return []*isa.Program{countdown(40), memLoop(30), countdown(17), memLoop(8), memLoop(25), countdown(99)}
}

// TestPretMatchesOracle: SimulatePret on sim.Run's fixed-cost machine
// reproduces the private simulator cycle for cycle, at every hardware
// thread count and every number of programs up to it, over E15's task
// set and the package's test programs.
func TestPretMatchesOracle(t *testing.T) {
	e15, sc := exportedPrograms(t, "e15", "e15-pret-5co")
	p := sc.Mode.PRET
	base := smt.PretConfig{Threads: p.Threads, WheelWindow: p.WheelWindow, MemLatency: p.MemLatency}
	for _, set := range []programSet{{"e15", e15}, {"test", testPrograms()}} {
		for threads := 1; threads <= base.Threads; threads++ {
			c := base
			c.Threads = threads
			for n := 1; n <= min(threads, len(set.progs)); n++ {
				checkPret(t, fmt.Sprintf("%s threads=%d n=%d", set.name, threads, n), c, set.progs[:n])
			}
		}
	}
}

func checkPret(t *testing.T, label string, c smt.PretConfig, progs []*isa.Program) {
	t.Helper()
	got, err := c.SimulatePret(progs, oracleSteps)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := pretOracle(c, progs, oracleSteps)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s: SimulatePret %v, oracle %v", label, got, want)
	}
}

// TestBarreMatchesOracle is TestPretMatchesOracle for SimulateBarre over
// E16's task set.
func TestBarreMatchesOracle(t *testing.T) {
	e16, sc := exportedPrograms(t, "e16", "e16-smt-partitioned-queues")
	m := sc.Mode.SMT
	base := smt.BarreConfig{Threads: m.Threads, FULatency: m.FULatency, MemLatency: m.MemLatency}
	for _, set := range []programSet{{"e16", e16}, {"test", testPrograms()}} {
		for threads := 1; threads <= base.Threads; threads++ {
			c := base
			c.Threads = threads
			for n := 1; n <= min(threads, len(set.progs)); n++ {
				label := fmt.Sprintf("%s threads=%d n=%d", set.name, threads, n)
				got, err := c.SimulateBarre(set.progs[:n], oracleSteps)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := barreOracle(c, set.progs[:n], oracleSteps)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: SimulateBarre %v, oracle %v", label, got, want)
				}
			}
		}
	}
}

// TestWrappersKeepErrorContracts: the wrappers reject what the private
// simulators rejected (PRET's thread count is TestPretValidation's), and
// keep PRET's nil entries (and empty list) as idle threads reported at
// cycle 0.
func TestWrappersKeepErrorContracts(t *testing.T) {
	pc := defaultPret()
	checkPret(t, "nil entries", pc, []*isa.Program{nil, memLoop(20), nil, countdown(5)})
	if got, err := pc.SimulatePret(nil, oracleSteps); err != nil || len(got) != 0 {
		t.Errorf("PRET empty list: %v, %v; want no threads and no error", got, err)
	}
	bc := smt.BarreConfig{Threads: 2, FULatency: 2, MemLatency: 10}
	for _, progs := range [][]*isa.Program{nil, {countdown(3), countdown(3), countdown(3)}} {
		if _, err := bc.SimulateBarre(progs, oracleSteps); err == nil {
			t.Errorf("Barre: %d programs on %d threads accepted", len(progs), bc.Threads)
		}
	}
}
