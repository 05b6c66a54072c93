package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paratime/internal/arbiter"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/sim"
)

// requireSameExplore compares full exploration outcomes, including the
// error channel: parallel pricing must reproduce witnesses, counters,
// truncation flags and error text exactly.
func requireSameExplore(t *testing.T, label string, want *Result, wantErr error, got *Result, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: sequential %v, parallel %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text:\nseq %q\npar %q", label, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ:\nseq %+v\npar %+v", label, want, got)
	}
}

// TestExploreParMatchesSequential: ExplorePar must be bit-identical to
// Explore — same ExactWorst, witnesses, state/path counters, truncation
// — for random input-dependent programs, solo and co-running, at
// several worker counts under GOMAXPROCS 1 and 8.
func TestExploreParMatchesSequential(t *testing.T) {
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(318))
		for trial := 0; trial < 6; trial++ {
			for _, nCores := range []int{1, 2} {
				cores := make([]sim.CoreConfig, nCores)
				inputs := make([]Input, nCores)
				for i := range cores {
					cores[i] = simCore(fmt.Sprintf("p%d", i), randomProgram(rng, fmt.Sprintf("p%d", i)))
					inputs[i] = Input{Core: i, Reg: isa.R1, Values: []int32{0, 1, 3}}
				}
				sys := sim.System{Cores: cores, Mem: memctrl.DefaultConfig()}
				if trial%2 == 1 {
					sys.L2 = ptr(l2())
				}
				b := Budget{InitStates: 2}
				want, wantErr := Explore(sys, inputs, b)
				for _, workers := range []int{2, 8} {
					label := fmt.Sprintf("procs %d trial %d cores %d workers %d", procs, trial, nCores, workers)
					got, gotErr := ExplorePar(sys, inputs, b, workers)
					requireSameExplore(t, label, want, wantErr, got, gotErr)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestExploreParTopologies: every co-run topology the scenarios build
// (solo, joint, partition, and bus under round-robin and TDMA) must
// price identically at workers 2, 3 and 8 and at workers 1. Workers
// share one sim.System, bus arbiter included, so any request state
// leaking into that shared value shows up here as a diverging worst
// case and, under -race, as a data race.
func TestExploreParTopologies(t *testing.T) {
	regs := regimes()
	lat := l2().HitLatency + memctrl.DefaultConfig().Bound()
	systems := map[string]func(progs []*isa.Program) sim.System{}
	for name, r := range regs {
		systems[name] = r.build
	}
	systems["bus-tdma"] = func(progs []*isa.Program) sim.System {
		sys := regs["bus"].build(progs)
		slots := make([]arbiter.Slot, len(progs))
		for i := range slots {
			slots[i] = arbiter.Slot{Owner: i, Len: lat + 3*i}
		}
		sys.Bus = arbiter.NewTDMA(slots, lat)
		return sys
	}
	names := make([]string, 0, len(systems))
	for name := range systems {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(1411))
	for _, name := range names {
		nCores := 3
		if name == "solo" {
			nCores = 1
		}
		progs := make([]*isa.Program, nCores)
		inputs := make([]Input, nCores)
		for i := range progs {
			progs[i] = randomProgram(rng, fmt.Sprintf("t%d", i))
			inputs[i] = Input{Core: i, Reg: isa.R1, Values: []int32{0, 1, 2}}
		}
		sys := systems[name](progs)
		b := Budget{InitStates: 2}
		want, wantErr := ExplorePar(sys, inputs, b, 1)
		if wantErr != nil {
			t.Fatalf("%s: %v", name, wantErr)
		}
		for _, workers := range []int{2, 3, 8} {
			got, gotErr := ExplorePar(sys, inputs, b, workers)
			requireSameExplore(t, fmt.Sprintf("%s workers %d", name, workers), want, wantErr, got, gotErr)
		}
	}
}

// TestExploreParTruncation: budget truncation semantics — the MaxStates
// cut-off point, the Truncated flag and the all-truncated error naming
// the limiting budget field — must survive parallel pricing unchanged.
func TestExploreParTruncation(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}
	inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 5}}}
	budgets := map[string]Budget{
		// 3 assignments x 3 patterns = 9 states; cap mid-enumeration.
		"max-states": {InitStates: 3, MaxStates: 4},
		// Every trace blows the decision budget: no state priced, and
		// the error must name MaxBranchDecisions.
		"all-truncated": {InitStates: 2, MaxBranchDecisions: 1},
		// Divergence guard trips first: the error names MaxSteps.
		"all-truncated-steps": {InitStates: 2, MaxSteps: 3},
	}
	for name, b := range budgets {
		want, wantErr := Explore(sys, inputs, b)
		if name == "max-states" {
			if wantErr != nil {
				t.Fatalf("%s: %v", name, wantErr)
			}
			if want.States != 4 || !want.Truncated {
				t.Fatalf("%s: states %d truncated %v, want 4 and true", name, want.States, want.Truncated)
			}
		} else {
			if wantErr == nil {
				t.Fatalf("%s: sequential exploration unexpectedly succeeded", name)
			}
			field := "MaxBranchDecisions"
			if name == "all-truncated-steps" {
				field = "MaxSteps"
			}
			if !strings.Contains(wantErr.Error(), field) {
				t.Fatalf("%s: error %q does not name %s", name, wantErr, field)
			}
		}
		for _, workers := range []int{2, 8} {
			got, gotErr := ExplorePar(sys, inputs, b, workers)
			requireSameExplore(t, fmt.Sprintf("%s workers %d", name, workers), want, wantErr, got, gotErr)
		}
	}
}
