package core_test

import (
	"testing"

	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/flow"
	"paratime/internal/isa"
	"paratime/internal/workload"
)

// TestKeyedPrepareKey: a Keyed task keys byte for byte as the plain
// task does, for every suite task and for a task with loop bounds and
// an extra path constraint, with and without an L2, and its key is one
// allocation; re-pointing a Keyed task at another program drops the
// cached part.
func TestKeyedPrepareKey(t *testing.T) {
	prog := isa.MustAssemble("constrained", `
        li   r1, 16
loop:   addi r1, r1, -1
        bne  r1, r0, loop
        halt`)
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	facts := flow.NewFacts().Bound("loop", 16)
	facts.Constraints = []flow.Constraint{{
		Name:  "c",
		Terms: []flow.Term{{Coef: 1, Edge: g.Edges[0]}, {Coef: 2, Block: g.Blocks[0]}},
		Rel:   flow.RelLE,
		RHS:   100,
	}}
	tasks := append(workload.Suite(), core.Task{Name: "constrained", Prog: prog, Facts: facts})
	noL2 := core.DefaultSystem()
	noL2.Mem.L2 = nil
	for _, sys := range []core.SystemConfig{core.DefaultSystem(), noL2} {
		for _, task := range tasks {
			if got, want := core.PrepareKey(core.Keyed(task), sys), core.PrepareKey(task, sys); got != want {
				t.Errorf("%s: keyed PrepareKey %q, plain %q", task.Name, got, want)
			}
		}
	}
	sys := core.DefaultSystem()
	keyed := core.Keyed(tasks[0])
	if n := testing.AllocsPerRun(10, func() { core.PrepareKey(keyed, sys) }); n != 1 {
		t.Errorf("keyed PrepareKey makes %v allocations, want 1: the key itself", n)
	}
	keyed.Prog = tasks[1].Prog
	plain := tasks[0]
	plain.Prog = tasks[1].Prog
	if got, want := core.PrepareKey(keyed, sys), core.PrepareKey(plain, sys); got != want {
		t.Errorf("re-pointed keyed task keys by its old program: %q, want %q", got, want)
	}
	keyed = core.Keyed(tasks[len(tasks)-1])
	keyed.Facts = nil
	plain = tasks[len(tasks)-1]
	plain.Facts = nil
	if got, want := core.PrepareKey(keyed, sys), core.PrepareKey(plain, sys); got != want {
		t.Errorf("keyed task without its facts keys by its old facts: %q, want %q", got, want)
	}
}
