package explore

import (
	"fmt"

	"paratime/internal/sim"
)

// oracleExplore is the reference explorer the tests hold ExplorePar
// against: the plain sequential loop that prices each state with
// sim.Run as soon as it is enumerated. It enumerates in the same order
// (patterns outermost, then assignments row-major with the last input
// varying fastest) and must agree with ExplorePar at every worker count
// on results, witnesses, truncation and error text.
func oracleExplore(sys sim.System, inputs []Input, b Budget) (*Result, error) {
	b = b.withDefaults()
	n := len(sys.Cores)
	if n == 0 {
		return nil, fmt.Errorf("explore: no cores")
	}
	perCore, counts, combos, err := planInputs(n, inputs, b.MaxStates)
	if err != nil {
		return nil, err
	}

	// Taint traces are architectural, hence per (core, assignment) —
	// independent of co-runners and cache patterns; memoize them.
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

	res := &Result{ExactWorst: make([]int64, n), Witness: make([]Witness, n)}
	for i := range res.ExactWorst {
		res.ExactWorst[i] = -1
	}
	paths := map[string]bool{}
	priced := 0
	var sawSteps, sawDecisions bool
	idxs := make([]int64, n)
	for pat := 0; pat < b.InitStates && priced < b.MaxStates; pat++ {
		for combo := int64(0); combo < combos && priced < b.MaxStates; combo++ {
			decompose(combo, counts, idxs)
			assigns := make([][]RegValue, n)
			trs := make([]*trace, n)
			ok := true
			for c := 0; c < n; c++ {
				assigns[c] = assignFor(perCore[c], idxs[c])
				tr, err := getTrace(c, idxs[c])
				if err != nil {
					return nil, err
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
			run := sys
			run.Cores = make([]sim.CoreConfig, n)
			copy(run.Cores, sys.Cores)
			for c := range run.Cores {
				run.Cores[c].InitRegs = initRegs(assigns[c])
				run.Cores[c].WarmI, run.Cores[c].WarmD = warmAddrs(run.Cores[c], pat)
			}
			simRes, err := sim.Run(run, b.MaxCycles)
			if err != nil {
				return nil, fmt.Errorf("explore: state %d (pattern %d): %w", priced, pat, err)
			}
			priced++
			for c := 0; c < n; c++ {
				paths[fmt.Sprintf("%d|%s", c, trs[c].path)] = true
				if trs[c].decisions > res.MaxDecisions {
					res.MaxDecisions = trs[c].decisions
				}
				if cyc := simRes.Cycles(c); cyc > res.ExactWorst[c] {
					res.ExactWorst[c] = cyc
					res.Witness[c] = Witness{
						Init:   InitState{Regs: assigns, Pattern: pat},
						Path:   trs[c].path,
						Cycles: cyc,
					}
				}
			}
		}
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
