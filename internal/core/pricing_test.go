package core_test

import (
	"testing"

	"paratime/internal/cache"
	"paratime/internal/core"
	"paratime/internal/experiments"
	"paratime/internal/interfere"
	"paratime/internal/ipet"
	"paratime/internal/isa"
	"paratime/internal/pipeline"
)

// pricingPoints are the (BusDelay, MemLatency, Pipeline) points every
// prepared analysis is priced at; the first keeps the prepared system.
func pricingPoints(sys core.SystemConfig) []core.SystemConfig {
	slow := pipeline.DefaultConfig()
	slow.BranchPenalty = 5
	slow.ExLat[isa.ClassDiv] = 20
	flat := pipeline.DefaultConfig()
	flat.BranchPenalty = 0
	flat.ExLat[isa.ClassMul] = 1
	out := []core.SystemConfig{sys, sys, sys}
	out[1].Mem.BusDelay, out[1].Mem.MemLatency, out[1].Pipeline = 7, 3, slow
	out[2].Mem.BusDelay, out[2].Mem.MemLatency, out[2].Pipeline = 25, 200, flat
	return out
}

// lockL2 overrides the L2 class of every merged reference in a fixed
// AlwaysHit / AlwaysMiss / Persistent rotation, as cache locking does
// (a Persistent override carries no scope).
func lockL2(a *core.Analysis) {
	a.L2Override = map[cache.RefID]cache.Class{}
	classes := [...]cache.Class{cache.AlwaysHit, cache.AlwaysMiss, cache.Persistent}
	n := 0
	for _, b := range a.G.Blocks {
		if b.IsExit() {
			continue
		}
		for seq := range a.Merged.Refs[b.ID] {
			a.L2Override[cache.RefID{Block: b.ID, Seq: seq}] = classes[n%len(classes)]
			n++
		}
	}
}

// pricingVariants returns clones of a adjusted the ways downstream
// passes adjust them: bypassed, statically locked, dynamically locked
// (overrides plus scoped reload events) and interference-shifted.
func pricingVariants(t *testing.T, a *core.Analysis) map[string]*core.Analysis {
	t.Helper()
	out := map[string]*core.Analysis{}
	if a.L2 == nil {
		return out
	}
	bypassed := a.Clone()
	if _, err := interfere.ApplyBypass(bypassed); err != nil {
		t.Fatal(err)
	}
	out["bypass"] = bypassed
	static := a.Clone()
	lockL2(static)
	out["static-lock"] = static
	dynamic := a.Clone()
	lockL2(dynamic)
	for _, l := range dynamic.G.Loops {
		if l.Parent == nil {
			dynamic.ExtraEvents = append(dynamic.ExtraEvents, ipet.Event{Name: "reload", Block: l.Header.ID, Penalty: 40, Scope: l})
		}
	}
	out["dynamic-lock"] = dynamic
	shifted := a.Clone()
	shift := make([]int, shifted.L2.Cfg.Sets)
	for s := range shift {
		shift[s] = s % (shifted.L2.Cfg.Ways + 1)
	}
	shifted.L2.ReclassifyShift(shift)
	out["interference"] = shifted
	return out
}

// TestPlanPricingMatchesOracle prices every exported scenario's
// prepared tasks at several bus delays, memory latencies and pipelines
// — from the frozen plan CompilePlan keeps, and, for bypassed, locked
// and interference-shifted clones, from per-call plans and frozen
// ones — and demands that each agree with the retired map-walking
// pricing on the timing rows, the event list in order, the WCET and
// the block, edge and event counts.
func TestPlanPricingMatchesOracle(t *testing.T) {
	scenarios, err := experiments.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checked := 0
	for _, s := range scenarios {
		sys, err := s.System.BuildSystem()
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Tasks {
			task, err := s.Tasks[i].BuildTask()
			if err != nil {
				t.Fatal(err)
			}
			if key := core.PrepareKey(task, sys); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			a, err := core.Prepare(task, sys)
			if err != nil {
				t.Fatal(err)
			}
			variants := pricingVariants(t, a)
			a.CompilePlan()
			variants["prepared"] = a
			for name, v := range variants {
				frozen := *v
				frozen.CompilePlan()
				for k, point := range pricingPoints(sys) {
					for _, c := range []*core.Analysis{v, &frozen} {
						c := *c
						c.Sys = point
						if err := core.CheckPricingOracle(&c); err != nil {
							t.Fatalf("%s task %s, %s, point %d: %v", s.Name, task.Name, name, k, err)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no analysis priced")
	}
	t.Logf("%d scenarios, %d distinct prepared tasks, %d pricings checked", len(scenarios), len(seen), checked)
}

// TestCloneDropsPlan: a clone compiles its own plan on every
// ComputeWCET, so reclassifying it after the receiver froze its plan
// prices the clone's new classification, and leaves the receiver's
// pricing where it was.
func TestCloneDropsPlan(t *testing.T) {
	a, err := core.Prepare(core.Task{Name: "loop", Prog: isa.MustAssemble("loop", `
        li   r1, 16
        li   r3, 0x8000
loop:   ld   r2, 0(r3)
        add  r4, r4, r2
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
.data 0x8000
        .word 7
`)}, core.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	a.CompilePlan()
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	before := a.WCET
	c := a.Clone()
	lockL2(c)
	if err := core.CheckPricingOracle(c); err != nil {
		t.Fatal(err)
	}
	if err := c.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if c.WCET == before {
		t.Fatalf("locked clone priced at the receiver's WCET %d: its frozen plan leaked into the clone", before)
	}
	if err := a.ComputeWCET(); err != nil {
		t.Fatal(err)
	}
	if a.WCET != before {
		t.Fatalf("receiver re-priced at %d after its clone was locked, was %d", a.WCET, before)
	}
}
