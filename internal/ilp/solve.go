package ilp

import "errors"

// maxNodes bounds branch-and-bound exploration. IPET models relax to
// near-integral network-flow LPs, so realistic solves visit a handful of
// nodes; the bound catches runaway models.
const maxNodes = 100_000

// SolveLP solves the LP relaxation only: on the sparse int64 fast path
// when the arithmetic fits, falling back to the exact big.Rat oracle on
// overflow.
func (m *Model) SolveLP() (*Solution, error) {
	w := getWork()
	defer workPool.Put(w)
	res, err := m.fastLP(m.lower, m.upper, m.upinf, nil, nil, w)
	switch {
	case err == nil:
		if res.status != Optimal {
			return &Solution{Status: res.status, Nodes: 1, Pivots: w.pivots}, nil
		}
		return res.solution(1, w.pivots), nil
	case errors.Is(err, errOverflow):
		sol, oerr := m.oracleSolveLP()
		if sol != nil {
			sol.FellBack = true
		}
		return sol, oerr
	default:
		return nil, err
	}
}

// Solve maximizes the objective subject to the constraints, enforcing
// integrality of integer variables by depth-first branch and bound with
// best-bound pruning. The fast int64 path and the big.Rat fallback use
// identical pivoting and branching rules, so which one ran is invisible
// in the solution (only Solution.FellBack tells).
func (m *Model) Solve() (*Solution, error) { return m.solve(nil, nil) }

// SolveWithReuse is Solve with a warm-start cache: when key matches the
// snapshot stored in r, the root LP skips standard-form construction
// and phase 1 by restoring the cached feasible tableau. The caller must
// choose key so that equal keys imply identical constraint rows and
// variable bounds (the objective may differ freely — phase 1 never
// reads it, which is why a warm solve is bit-identical to a cold one).
func (m *Model) SolveWithReuse(r *Reuse, key []int64) (*Solution, error) {
	return m.solve(r, key)
}

func (m *Model) solve(reuse *Reuse, reuseKey []int64) (*Solution, error) {
	sol, err := m.fastSolve(reuse, reuseKey)
	switch {
	case err == nil:
		return sol, nil
	case errors.Is(err, errOverflow):
		sol, oerr := m.oracleSolve()
		if sol != nil {
			sol.FellBack = true
		}
		return sol, oerr
	default:
		return nil, err
	}
}
