package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"paratime/internal/arbiter"
	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/isa"
	"paratime/internal/memctrl"
	"paratime/internal/pipeline"
	"paratime/internal/sim"
)

func l1i() cache.Config {
	return cache.Config{Name: "L1I", Sets: 8, Ways: 2, LineBytes: 16, HitLatency: 1}
}
func l1d() cache.Config {
	return cache.Config{Name: "L1D", Sets: 8, Ways: 2, LineBytes: 16, HitLatency: 1}
}
func l2() cache.Config {
	return cache.Config{Name: "L2", Sets: 32, Ways: 4, LineBytes: 32, HitLatency: 4}
}

func simCore(name string, p *isa.Program) sim.CoreConfig {
	return sim.CoreConfig{Name: name, Prog: p, Pipe: pipeline.DefaultConfig(), L1I: l1i(), L1D: l1d()}
}

// staticSys mirrors a sim core configuration for the static analyzer.
func staticSys(busDelay int, l2cfg *cache.Config) core.SystemConfig {
	return core.SystemConfig{
		Pipeline: pipeline.DefaultConfig(),
		Mem: core.MemSystem{
			L1I:        l1i(),
			L1D:        l1d(),
			L2:         l2cfg,
			BusDelay:   busDelay,
			MemLatency: memctrl.DefaultConfig().Bound(),
		},
	}
}

// diamond is a program whose path — and therefore time — depends on the
// input register r1: nonzero r1 selects a multiply-heavy loop body.
const diamond = `
        li   r2, 6
        li   r6, 0x8000
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

func TestExploreFindsWorstInput(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}
	base, err := sim.Run(sys, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExplorePar(sys, []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1}}}, Budget{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("two-state exploration must not truncate")
	}
	if res.States != 2 || res.Paths != 2 {
		t.Errorf("states %d paths %d, want 2 and 2", res.States, res.Paths)
	}
	// The default run seeds r1=0 (fast path), so the exact worst over
	// {0,1} must strictly exceed it.
	if res.ExactWorst[0] <= base.Cycles(0) {
		t.Errorf("exact worst %d not above default-input run %d", res.ExactWorst[0], base.Cycles(0))
	}
	w := res.Witness[0]
	if w.Cycles != res.ExactWorst[0] {
		t.Errorf("witness cycles %d != exact worst %d", w.Cycles, res.ExactWorst[0])
	}
	// r1=1 keeps the tainted loop branch not-taken on all 6 iterations.
	if w.Path != strings.Repeat("N", 6) {
		t.Errorf("witness path %q, want %q", w.Path, strings.Repeat("N", 6))
	}
	if got := w.Init.Regs[0]; len(got) != 1 || got[0] != (RegValue{Reg: isa.R1, Value: 1}) {
		t.Errorf("witness assignment %v, want r1=1", got)
	}
	rep, err := Replay(sys, w.Init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles(0) != res.ExactWorst[0] {
		t.Errorf("replay %d cycles, want exactly %d", rep.Cycles(0), res.ExactWorst[0])
	}
}

func TestExploreDeterministic(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}
	inputs := []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 5}}}
	b := Budget{InitStates: 3}
	r1, err := ExplorePar(sys, inputs, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExplorePar(sys, inputs, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("exploration not deterministic:\n%+v\n%+v", r1, r2)
	}
	if r1.States != 9 {
		t.Errorf("states %d, want 3 assignments x 3 patterns = 9", r1.States)
	}
}

func TestExploreInitStatesEnumerated(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, L2: ptr(l2()), Mem: memctrl.DefaultConfig()}
	res, err := ExplorePar(sys, nil, Budget{InitStates: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 4 || res.Truncated {
		t.Errorf("states %d truncated %v, want 4 and false", res.States, res.Truncated)
	}
	// Pattern 0 is cold; warming an in-order core can only help, so the
	// cold state must be the witnessed worst.
	if res.Witness[0].Init.Pattern != 0 {
		t.Errorf("worst pattern %d, want 0 (cold)", res.Witness[0].Init.Pattern)
	}
	rep, err := Replay(sys, res.Witness[0].Init, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles(0) != res.ExactWorst[0] {
		t.Errorf("replay %d, want %d", rep.Cycles(0), res.ExactWorst[0])
	}
}

func TestExploreTruncation(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}

	// MaxStates cuts enumeration off.
	res, err := ExplorePar(sys, []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 1, 2, 3}}},
		Budget{MaxStates: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.States != 2 {
		t.Errorf("MaxStates=2 over 4 assignments: states %d truncated %v", res.States, res.Truncated)
	}

	// A trace over the decision budget is skipped, flagged, and the rest
	// still explored: r1 counts a tainted loop, so r1=8 takes 9 tainted
	// decisions.
	loop := isa.MustAssemble("inputloop", `
loop:   beq  r1, r0, done
        addi r1, r1, -1
        j    loop
done:   halt`)
	lsys := sim.System{Cores: []sim.CoreConfig{simCore("l", loop)}, Mem: memctrl.DefaultConfig()}
	res, err = ExplorePar(lsys, []Input{{Core: 0, Reg: isa.R1, Values: []int32{0, 8}}},
		Budget{MaxBranchDecisions: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.States != 1 {
		t.Errorf("decision budget: states %d truncated %v, want 1 and true", res.States, res.Truncated)
	}

	// Every trace over budget: no state priced, explicit error.
	if _, err = ExplorePar(lsys, []Input{{Core: 0, Reg: isa.R1, Values: []int32{8, 9}}},
		Budget{MaxBranchDecisions: 2}, 1); err == nil {
		t.Error("all-truncated exploration must fail, not report an empty exact worst")
	}
}

func TestExploreRejectsBadInputs(t *testing.T) {
	p := isa.MustAssemble("diamond", diamond)
	sys := sim.System{Cores: []sim.CoreConfig{simCore("d", p)}, Mem: memctrl.DefaultConfig()}
	for name, bad := range map[string][]Input{
		"core out of range": {{Core: 1, Reg: isa.R1, Values: []int32{0}}},
		"zero register":     {{Core: 0, Reg: isa.R0, Values: []int32{0}}},
		"no values":         {{Core: 0, Reg: isa.R1}},
		"duplicate":         {{Core: 0, Reg: isa.R1, Values: []int32{0}}, {Core: 0, Reg: isa.R1, Values: []int32{1}}},
	} {
		if _, err := ExplorePar(sys, bad, Budget{}, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// regime wires one co-run topology: the sandwich test runs every one.
type regime struct {
	build func(progs []*isa.Program) sim.System
	// bound returns the static busDelay and L2 view for core i.
	bound func(sys sim.System, i int) (int, *cache.Config)
}

func regimes() map[string]regime {
	memLat := func() int { return memctrl.DefaultConfig().Bound() }
	return map[string]regime{
		"solo": {
			build: func(progs []*isa.Program) sim.System {
				return sim.System{Cores: []sim.CoreConfig{simCore("t0", progs[0])},
					L2: ptr(l2()), Mem: memctrl.DefaultConfig()}
			},
			bound: func(sys sim.System, i int) (int, *cache.Config) { return 0, ptr(l2()) },
		},
		"joint": {
			build: func(progs []*isa.Program) sim.System {
				cores := make([]sim.CoreConfig, len(progs))
				for i, p := range progs {
					cores[i] = simCore(fmt.Sprintf("t%d", i), p)
				}
				return sim.System{Cores: cores, L2: ptr(l2()), SharedL2: true,
					Bus: arbiter.NewRoundRobin(len(progs), l2().HitLatency+memLat()),
					Mem: memctrl.DefaultConfig()}
			},
			// Joint static bound: misses everywhere (shared L2 gives no
			// guarantee), worst-case bus wait.
			bound: func(sys sim.System, i int) (int, *cache.Config) {
				return sys.Bus.Bound(i), nil
			},
		},
		"partition": {
			build: func(progs []*isa.Program) sim.System {
				view := cache.Config{Name: "L2v", Sets: 16, Ways: 2, LineBytes: 32, HitLatency: 4}
				cores := make([]sim.CoreConfig, len(progs))
				for i, p := range progs {
					cores[i] = simCore(fmt.Sprintf("t%d", i), p)
					v := view
					cores[i].L2 = &v
				}
				return sim.System{Cores: cores, L2: ptr(l2()),
					Bus: arbiter.NewRoundRobin(len(progs), l2().HitLatency+memLat()),
					Mem: memctrl.DefaultConfig()}
			},
			bound: func(sys sim.System, i int) (int, *cache.Config) {
				return sys.Bus.Bound(i), sys.Cores[i].L2
			},
		},
		"bus": {
			build: func(progs []*isa.Program) sim.System {
				cores := make([]sim.CoreConfig, len(progs))
				for i, p := range progs {
					cores[i] = simCore(fmt.Sprintf("t%d", i), p)
				}
				return sim.System{Cores: cores, L2: ptr(l2()),
					Bus: arbiter.NewRoundRobin(len(progs), l2().HitLatency+memLat()),
					Mem: memctrl.DefaultConfig()}
			},
			bound: func(sys sim.System, i int) (int, *cache.Config) {
				return sys.Bus.Bound(i), ptr(l2())
			},
		},
	}
}

// randomProgram builds a small program whose path depends on r1 and
// whose loop trip count and data stride are drawn from the rng.
func randomProgram(rng *rand.Rand, name string) *isa.Program {
	outer := 2 + rng.Intn(5)
	stride := 4 * (1 + rng.Intn(6))
	return isa.MustAssemble(name, fmt.Sprintf(`
        li   r2, %d
        li   r6, 0x8000
loop:   beq  r1, r0, even
        mul  r4, r2, r2
        j    join
even:   add  r4, r4, r2
join:   ld   r5, 0(r6)
        add  r4, r4, r5
        st   r4, 0(r6)
        addi r6, r6, %d
        addi r2, r2, -1
        bne  r2, r0, loop
        halt`, outer, stride))
}

// TestSandwichAllRegimes is the central tightness property: under every
// regime, for random input-dependent programs,
//
//	sim.Run (one trace)  <=  explore.ExactWorst  <=  static WCET
//
// and the witness replays to exactly ExactWorst.
func TestSandwichAllRegimes(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for regimeName, reg := range regimes() {
		nCores := 1
		if regimeName != "solo" {
			nCores = 2
		}
		for trial := 0; trial < 6; trial++ {
			progs := make([]*isa.Program, nCores)
			for i := range progs {
				progs[i] = randomProgram(rng, fmt.Sprintf("p%d", i))
			}
			sys := reg.build(progs)
			var inputs []Input
			for i := range progs {
				inputs = append(inputs, Input{Core: i, Reg: isa.R1, Values: []int32{0, 1, 3}})
			}
			res, err := ExplorePar(sys, inputs, Budget{InitStates: 2}, 1)
			if err != nil {
				t.Fatalf("%s/%d: %v", regimeName, trial, err)
			}
			if res.Truncated {
				t.Fatalf("%s/%d: unexpectedly truncated", regimeName, trial)
			}
			single, err := sim.Run(sys, DefaultMaxCycles)
			if err != nil {
				t.Fatalf("%s/%d: %v", regimeName, trial, err)
			}
			for c := range progs {
				// Lower slice: the default all-zero input with a cold cache
				// is one of the enumerated states.
				if res.ExactWorst[c] < single.Cycles(c) {
					t.Errorf("%s/%d core %d: exact worst %d below single trace %d",
						regimeName, trial, c, res.ExactWorst[c], single.Cycles(c))
				}
				// Upper slice: the static bound covers every enumerated state.
				busDelay, l2view := reg.bound(sys, c)
				a, err := core.Analyze(core.Task{Name: sys.Cores[c].Name, Prog: progs[c]},
					staticSys(busDelay, l2view))
				if err != nil {
					t.Fatalf("%s/%d: %v", regimeName, trial, err)
				}
				if res.ExactWorst[c] > a.WCET {
					t.Errorf("%s/%d core %d: UNSOUND exact worst %d above static bound %d",
						regimeName, trial, c, res.ExactWorst[c], a.WCET)
				}
				// Witness: replays to exactly the exact worst.
				rep, err := Replay(sys, res.Witness[c].Init, 0)
				if err != nil {
					t.Fatalf("%s/%d: %v", regimeName, trial, err)
				}
				if rep.Cycles(c) != res.ExactWorst[c] {
					t.Errorf("%s/%d core %d: witness replays to %d, want exactly %d",
						regimeName, trial, c, rep.Cycles(c), res.ExactWorst[c])
				}
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestExploreFixedCostCores: a machine of fixed-cost cores has no cache
// geometry, so the warm patterns are empty (no division by a zero line
// size) and cannot change the timing: every pattern prices to the plain
// simulation, and inputs still choose the path.
func TestExploreFixedCostCores(t *testing.T) {
	p := isa.MustAssemble("branchy", `
        beq  r1, r0, skip
        ld   r2, 0(r0)
skip:   halt`)
	sys := sim.System{Bus: arbiter.NewWheel(2, 26), Cores: []sim.CoreConfig{
		{Name: "a", Prog: p, Fixed: &sim.FixedCost{Issue: 2, Mem: 20}},
		{Name: "b", Prog: p, Fixed: &sim.FixedCost{Start: 1, Issue: 2, Mem: 20}},
	}}
	res, err := ExplorePar(sys, []Input{{Core: 0, Reg: 1, Values: []int32{0, 1}}}, Budget{InitStates: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 8 || res.Truncated || res.Paths != 3 {
		t.Errorf("states %d paths %d truncated %v, want 8 states, 3 paths, exhaustive", res.States, res.Paths, res.Truncated)
	}
	solo, err := sim.Run(sys, DefaultMaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactWorst[1] != solo.Cycles(1) || res.Witness[0].Init.Pattern != 0 || res.ExactWorst[0] <= solo.Cycles(0) {
		t.Errorf("exact worst %v witness %+v, plain run %v", res.ExactWorst, res.Witness[0], solo.Stats)
	}
}
