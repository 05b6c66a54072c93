package experiments

import (
	"context"
	"fmt"
	"slices"

	"paratime/internal/arbiter"
	"paratime/internal/cfg"
	"paratime/internal/core"
	"paratime/internal/engine"
	"paratime/internal/isa"
	"paratime/internal/pipeline"
	"paratime/internal/report"
	"paratime/internal/spec"
	"paratime/internal/workload"
)

// eng is the package-shared batch engine: every experiment's analysis
// fan-out goes through one pool and one memo cache, so experiments that
// revisit a (task, cache-geometry) pair — e.g. the suite under the
// default system in E1 and E18, or one task under several bus bounds in
// E12/E13 — reuse the prepared prefix.
var eng = engine.New(0)

// analyzeAll batches full analyses for every request through eng.
func analyzeAll(reqs []engine.Request) ([]*core.Analysis, error) {
	return eng.AnalyzeAll(context.Background(), reqs)
}

// runScenario executes one scenario on the package-shared engine; the
// rebased experiments build their requests declaratively through it.
func runScenario(sc *spec.Scenario) (*spec.Report, error) {
	return spec.Run(context.Background(), sc, eng)
}

// variant returns a copy of sc, changed by edit, that shares no task
// list with sc: the rebased experiments derive their compared
// configurations from one exported scenario.
func variant(sc *spec.Scenario, edit func(*spec.Scenario)) *spec.Scenario {
	v := *sc
	v.Tasks = slices.Clone(sc.Tasks)
	edit(&v)
	return &v
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mustAsm(name, src string) *isa.Program { return isa.MustAssemble(name, src) }

func mustGraph(task core.Task) *cfg.Graph { return cfg.MustBuild(task.Prog) }

func flatTiming(fetch, mem int) pipeline.TimingFn {
	return func(b *cfg.Block, i int) pipeline.InstTiming {
		return pipeline.InstTiming{Fetch: fetch, Mem: mem}
	}
}

// makeNHRTs returns n non-critical co-runner programs.
func makeNHRTs(n int) []*isa.Program {
	var out []*isa.Program
	for _, t := range makeNHRTTasks(n) {
		out = append(out, t.Prog)
	}
	return out
}

func makeNHRTTasks(n int) []core.Task {
	all := []core.Task{
		workload.Fib(40, workload.Slot(10)),
		workload.CountBits(6, workload.Slot(11)),
		workload.CRC(10, workload.Slot(12)),
		workload.MemCopy(24, workload.Slot(13)),
		workload.BSort(8, workload.Slot(14)),
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// bigLoopTask builds a loop whose straight-line body has bodyInsts
// instructions (an instruction-side working set larger than a tiny L1I
// but fitting the L2), iterated iters times, at the default base.
func bigLoopTask(iters, bodyInsts int) core.Task {
	return bigLoopTaskAt(iters, bodyInsts, isa.DefaultBase)
}

// bigLoopTaskAt places the big loop at an explicit text base.
func bigLoopTaskAt(iters, bodyInsts int, base uint32) core.Task {
	b := isa.NewBuilder(fmt.Sprintf("bigloop@%x", base)).SetBase(base)
	b.Li(isa.R1, int32(iters))
	b.Label("loop")
	for i := 0; i < bodyInsts; i++ {
		b.Op3(isa.ADD, isa.R2+isa.Reg(i%4), isa.R2, isa.R3)
	}
	b.OpI(isa.ADDI, isa.R1, isa.R1, -1)
	b.Br(isa.BNE, isa.R1, isa.R0, "loop")
	b.Halt()
	p, err := b.Done()
	if err != nil {
		panic(err)
	}
	return core.Task{Name: p.Name, Prog: p}
}

// phasedTask is the two-phase array-walk task of the locking experiments.
func phasedTask() core.Task {
	src := `
        li   r3, 0x8000
        li   r5, 0x8400
p1:     ld   r2, 0(r3)
        add  r4, r4, r2
        addi r3, r3, 4
        bne  r3, r5, p1
        li   r3, 0x9000
        li   r5, 0x9400
p2:     ld   r2, 0(r3)
        add  r4, r4, r2
        addi r3, r3, 4
        bne  r3, r5, p2
        halt
.data 0x8000
        .word 1
.data 0x9000
        .word 2`
	return core.Task{Name: "phased", Prog: mustAsm("phased", src)}
}

// --- E11: TDMA offset-set analysis -----------------------------------------

// tdmaStage is one diamond of the synthetic multi-path program: the two
// alternatives differ in compute length, and each path issues one bus
// access at its end.
type tdmaStage struct {
	computeA, computeB int64
}

// Exp11TDMA (§5.2, Rosén et al.): exact TDMA analysis must track every
// possible block start offset within the bus period; the offset-set size
// grows with path multiplicity, while the offset-blind fallback bound
// (sum of other slots per access) degrades the WCET — the survey's
// argument that static bus schedules fit static WCET analysis only for
// programs with very few paths.
func Exp11TDMA() (*Result, error) {
	lat := 6
	bus := arbiter.NewTDMA([]arbiter.Slot{{Owner: 0, Len: 8}, {Owner: 1, Len: 10}, {Owner: 2, Len: 8}}, lat)
	t := report.New("E11: TDMA offset-set analysis vs fallback bound",
		"diamonds", "paths", "offset states", "exact WCET", "fallback WCET", "fallback/exact")
	var lastStates float64
	for k := 2; k <= 10; k += 2 {
		stages := make([]tdmaStage, k)
		for i := range stages {
			stages[i] = tdmaStage{computeA: int64(3 + i%5), computeB: int64(9 + (i*3)%7)}
		}
		exact, states := tdmaExact(bus, 0, stages)
		fallback := tdmaFallback(bus, 0, stages)
		paths := 1 << k
		t.Add(k, paths, states, exact, fallback, report.Ratio(fallback, exact))
		lastStates = float64(states)
		if fallback < exact {
			return nil, fmt.Errorf("e11: fallback %d below exact %d", fallback, exact)
		}
	}
	return &Result{Table: t, Metrics: map[string]float64{"offset_states": lastStates}}, nil
}

// tdmaExact runs the offset-set DP: per stage, a map from bus-period
// offset to the maximum completion time reaching that offset. Returns the
// exact WCET and the total number of (stage, offset) states.
func tdmaExact(bus *arbiter.TDMA, coreID int, stages []tdmaStage) (int64, int) {
	period := bus.Period()
	cur := map[int64]int64{0: 0} // offset -> max absolute time
	states := 1
	step := func(offsets map[int64]int64, compute int64) map[int64]int64 {
		out := map[int64]int64{}
		//paralint:unordered max-fold per landing offset; commutative
		for _, tmax := range offsets {
			reqAt := tmax + compute
			grant := bus.GrantAfter(coreID, reqAt)
			done := grant + int64(bus.Latency())
			off := done % period
			if v, ok := out[off]; !ok || done > v {
				out[off] = done
			}
		}
		return out
	}
	for _, st := range stages {
		a := step(cur, st.computeA)
		b := step(cur, st.computeB)
		merged := a
		//paralint:unordered max-merge of two offset maps; commutative
		for off, v := range b {
			if w, ok := merged[off]; !ok || v > w {
				merged[off] = v
			}
		}
		cur = merged
		states += len(cur)
	}
	var wcet int64
	//paralint:unordered max-fold over final offsets
	for _, v := range cur {
		if v > wcet {
			wcet = v
		}
	}
	return wcet, states
}

// tdmaFallback prices every access with the offset-blind upper bound.
func tdmaFallback(bus *arbiter.TDMA, coreID int, stages []tdmaStage) int64 {
	per := int64(bus.SumOfOtherSlots(coreID) + bus.Latency())
	var total int64
	for _, st := range stages {
		c := st.computeA
		if st.computeB > c {
			c = st.computeB
		}
		total += c + per
	}
	return total
}
