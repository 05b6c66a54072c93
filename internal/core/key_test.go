package core

import (
	"reflect"
	"testing"

	"paratime/internal/cache"
	"paratime/internal/cfg"
	"paratime/internal/flow"
	"paratime/internal/isa"
)

// keyInputs builds a fresh task and system for one PrepareKey mutation:
// a program with an instruction stream, a label and a data word, flow
// facts with a bound and a constraint over an edge, a block and a
// constant, and the default three-level geometry.
func keyInputs(t *testing.T) (Task, SystemConfig, *cfg.Graph) {
	t.Helper()
	prog := isa.MustAssemble("key", loopSrc)
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	facts := flow.NewFacts().Bound("loop", 16)
	facts.Constraints = append(facts.Constraints, flow.Constraint{
		Name:  "c",
		Terms: []flow.Term{{Coef: 1, Edge: g.Edges[0]}, {Coef: 2, Block: g.Blocks[0]}, {Coef: 3}},
		Rel:   flow.RelLE,
		RHS:   100,
	})
	return Task{Name: "key", Prog: prog, Facts: facts}, DefaultSystem(), g
}

// TestPrepareKeyCoverage: every input Prepare reads changes the key, and
// the parameters it does not read (bus delay, memory latency, pipeline,
// parallelism) leave it alone, so sweeps over them share one prepared
// prefix.
func TestPrepareKeyCoverage(t *testing.T) {
	type mutation struct {
		name string
		mut  func(task *Task, sys *SystemConfig, g *cfg.Graph)
	}
	term := func(task *Task, i int) *flow.Term { return &task.Facts.Constraints[0].Terms[i] }
	changes := []mutation{
		{"inst op", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[3].Op = isa.SUB }},
		{"inst rd", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[3].Rd++ }},
		{"inst rs1", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[3].Rs1++ }},
		{"inst rs2", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[3].Rs2++ }},
		{"inst imm", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[4].Imm-- }},
		{"inst target", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Insts[5].Target += isa.InstBytes }},
		{"base", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Base += 0x100 }},
		{"label name", func(task *Task, _ *SystemConfig, _ *cfg.Graph) {
			task.Prog.Labels = map[string]int{"loop2": task.Prog.Labels["loop"]}
		}},
		{"label position", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Labels["loop"]++ }},
		{"data address", func(task *Task, _ *SystemConfig, _ *cfg.Graph) {
			task.Prog.Data = map[uint32]int32{0x8004: task.Prog.Data[0x8000]}
		}},
		{"data value", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Prog.Data[0x8000]++ }},
		{"bound", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Facts.Bound("loop", 17) }},
		{"constraint edge", func(task *Task, _ *SystemConfig, g *cfg.Graph) { term(task, 0).Edge = g.Edges[1] }},
		{"constraint block", func(task *Task, _ *SystemConfig, g *cfg.Graph) { term(task, 1).Block = g.Blocks[1] }},
		{"constraint constant", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { term(task, 2).Coef++ }},
		{"constraint relation", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Facts.Constraints[0].Rel = flow.RelGE }},
		{"constraint rhs", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Facts.Constraints[0].RHS++ }},
		{"constraint name", func(task *Task, _ *SystemConfig, _ *cfg.Graph) { task.Facts.Constraints[0].Name = "d" }},
		{"L2 absent", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) { sys.Mem.L2 = nil }},
	}
	// Every field of every geometry, found by reflection so a field added
	// to cache.Config is covered (or fails here) without editing the table.
	levels := []struct {
		name string
		at   func(sys *SystemConfig) *cache.Config
	}{
		{"L1I", func(sys *SystemConfig) *cache.Config { return &sys.Mem.L1I }},
		{"L1D", func(sys *SystemConfig) *cache.Config { return &sys.Mem.L1D }},
		{"L2", func(sys *SystemConfig) *cache.Config {
			l2 := *sys.Mem.L2
			sys.Mem.L2 = &l2
			return &l2
		}},
	}
	ct := reflect.TypeOf(cache.Config{})
	for _, lv := range levels {
		for i := 0; i < ct.NumField(); i++ {
			changes = append(changes, mutation{lv.name + "." + ct.Field(i).Name, func(_ *Task, sys *SystemConfig, _ *cfg.Graph) {
				f := reflect.ValueOf(lv.at(sys)).Elem().Field(i)
				switch f.Kind() {
				case reflect.Int:
					f.SetInt(f.Int() + 1)
				case reflect.String:
					f.SetString(f.String() + "x")
				default:
					t.Fatalf("cache.Config.%s: no mutation for kind %s", ct.Field(i).Name, f.Kind())
				}
			}})
		}
	}
	unchanged := []mutation{
		{"BusDelay", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) { sys.Mem.BusDelay += 7 }},
		{"MemLatency", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) { sys.Mem.MemLatency += 7 }},
		{"Pipeline.BranchPenalty", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) { sys.Pipeline.BranchPenalty += 7 }},
		{"Pipeline.ExLat", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) {
			sys.Pipeline.ExLat = map[isa.Class]int{isa.ClassMul: 9}
		}},
		{"Parallelism", func(_ *Task, sys *SystemConfig, _ *cfg.Graph) { sys.Parallelism = 8 }},
	}

	task, sys, _ := keyInputs(t)
	base := PrepareKey(task, sys)
	if again := PrepareKey(task, sys); again != base {
		t.Fatalf("PrepareKey is not stable: %q vs %q", base, again)
	}
	seen := map[string]string{base: "base"}
	for _, m := range changes {
		task, sys, g := keyInputs(t)
		m.mut(&task, &sys, g)
		key := PrepareKey(task, sys)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key equals the key of %s", m.name, prev)
			continue
		}
		seen[key] = m.name
	}
	for _, m := range unchanged {
		task, sys, g := keyInputs(t)
		m.mut(&task, &sys, g)
		if key := PrepareKey(task, sys); key != base {
			t.Errorf("%s changed the key: Prepare does not read it", m.name)
		}
	}
}
