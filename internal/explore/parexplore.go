package explore

import (
	"fmt"

	"paratime/internal/parallel"
	"paratime/internal/sim"
)

// ExplorePar is Explore with the priced simulations fanned across
// workers. The result — including witnesses, truncation flags, and
// every error message — is identical to Explore at any worker count:
//
//   - a sequential scan first replays Explore's enumeration (patterns
//     outermost, combinations row-major, the same memoized taint traces
//     and MaxStates gating) to fix the exact priced-state list;
//   - the simulations, which are pure functions of their start state,
//     then run on the worker pool;
//   - a sequential reduce in enumeration order replays Explore's
//     accumulation, so ties keep resolving to the lowest state index
//     and a simulation failure reports the same state number — and
//     outranks a trace error from any later combination, exactly as
//     the interleaved sequential loop would order them.
func ExplorePar(sys sim.System, inputs []Input, b Budget, workers int) (*Result, error) {
	if workers <= 1 {
		return Explore(sys, inputs, b)
	}
	b = b.withDefaults()
	n := len(sys.Cores)
	if n == 0 {
		return nil, fmt.Errorf("explore: no cores")
	}
	perCore, counts, combos, err := planInputs(n, inputs, b.MaxStates)
	if err != nil {
		return nil, err
	}

	type traceKey struct {
		core int
		idx  int64
	}
	traces := map[traceKey]*trace{}
	getTrace := func(core int, idx int64) (*trace, error) {
		k := traceKey{core, idx}
		if tr, ok := traces[k]; ok {
			return tr, nil
		}
		tr, err := runTaint(sys.Cores[core].Prog, assignFor(perCore[core], idx), b)
		if err != nil {
			return nil, fmt.Errorf("explore: core %d (%s): %w", core, sys.Cores[core].Name, err)
		}
		traces[k] = tr
		return tr, nil
	}

	// Phase 1: sequential scan fixing the priced-state list. Pricing is
	// the only step Explore runs between enumeration decisions that
	// cannot change them (the loop guards depend only on the priced
	// count, which equals the job count here), so the list is exact.
	type job struct {
		pat     int
		assigns [][]RegValue
		trs     []*trace
		cycles  []int64
		err     error
	}
	res := &Result{ExactWorst: make([]int64, n), Witness: make([]Witness, n)}
	for i := range res.ExactWorst {
		res.ExactWorst[i] = -1
	}
	var jobs []*job
	var traceErr error
	var sawSteps, sawDecisions bool
	idxs := make([]int64, n)
scan:
	for pat := 0; pat < b.InitStates && len(jobs) < b.MaxStates; pat++ {
		for combo := int64(0); combo < combos && len(jobs) < b.MaxStates; combo++ {
			decompose(combo, counts, idxs)
			assigns := make([][]RegValue, n)
			trs := make([]*trace, n)
			ok := true
			for c := 0; c < n; c++ {
				assigns[c] = assignFor(perCore[c], idxs[c])
				tr, err := getTrace(c, idxs[c])
				if err != nil {
					// Explore would abort here — after pricing every state
					// already on the list. Price them first: a simulation
					// failure among them takes precedence.
					traceErr = err
					break scan
				}
				trs[c] = tr
				if tr.truncated {
					ok = false
					sawSteps = sawSteps || tr.reason == "MaxSteps"
					sawDecisions = sawDecisions || tr.reason == "MaxBranchDecisions"
				}
			}
			if !ok {
				res.Truncated = true
				continue
			}
			jobs = append(jobs, &job{pat: pat, assigns: assigns, trs: trs})
		}
	}

	// Phase 2: price every state on the worker pool. Each job builds its
	// own core slice, and sim.Run builds every stateful device (caches,
	// memory controller, bus session) per call, so concurrent runs share
	// only read-only inputs: programs, geometries and the bus policy.
	parallel.For(workers, len(jobs), func(k int) {
		j := jobs[k]
		run := sys
		run.Cores = make([]sim.CoreConfig, n)
		copy(run.Cores, sys.Cores)
		for c := range run.Cores {
			run.Cores[c].InitRegs = initRegs(j.assigns[c])
			run.Cores[c].WarmI, run.Cores[c].WarmD = warmAddrs(run.Cores[c], j.pat)
		}
		simRes, err := sim.Run(run, b.MaxCycles)
		if err != nil {
			j.err = err
			return
		}
		j.cycles = make([]int64, n)
		for c := 0; c < n; c++ {
			j.cycles[c] = simRes.Cycles(c)
		}
	})

	// Phase 3: sequential reduce in enumeration order.
	paths := map[string]bool{}
	priced := 0
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("explore: state %d (pattern %d): %w", priced, j.pat, j.err)
		}
		priced++
		for c := 0; c < n; c++ {
			paths[fmt.Sprintf("%d|%s", c, j.trs[c].path)] = true
			if j.trs[c].decisions > res.MaxDecisions {
				res.MaxDecisions = j.trs[c].decisions
			}
			if cyc := j.cycles[c]; cyc > res.ExactWorst[c] {
				res.ExactWorst[c] = cyc
				res.Witness[c] = Witness{
					Init:   InitState{Regs: j.assigns, Pattern: j.pat},
					Path:   j.trs[c].path,
					Cycles: cyc,
				}
			}
		}
	}
	if traceErr != nil {
		return nil, traceErr
	}
	if priced == 0 {
		return nil, truncatedBudgetErr(sawSteps, sawDecisions)
	}
	res.States = priced
	res.Paths = len(paths)
	if total := saturatingMul(combos, int64(b.InitStates)); int64(priced) < total {
		res.Truncated = true
	}
	return res, nil
}
