package ilp

import "errors"

// maxNodes bounds branch-and-bound exploration. IPET models relax to
// near-integral network-flow LPs, so realistic solves visit a handful of
// nodes; the bound catches runaway models.
const maxNodes = 100_000

// Solve maximizes the objective subject to the constraints, enforcing
// integrality of integer variables by depth-first branch and bound with
// best-bound pruning. The fast int64 path and the big.Rat fallback use
// identical pivoting and branching rules, so which one ran is invisible
// in the solution (only Solution.FellBack tells).
func (m *Model) Solve() (*Solution, error) { return m.solve(nil, nil) }

// SolveWithReuse is Solve that leaves its optimal root tableau in r: the
// first optimal integral root under key becomes r's anchor, which
// Reuse.Price answers later objectives from before any model is built.
// A root solve under a new key discards the previous key's anchor. The
// caller must choose key so that equal keys imply identical constraint
// rows and variable bounds; the objective may differ freely.
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
