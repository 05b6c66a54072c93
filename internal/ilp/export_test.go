package ilp

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
)

// Test-only exports: the differential suites pin the fast int64 path
// against the retired big.Rat oracle, and build models with big.Rat
// coefficients and bounds.

// SolveOracle solves with the exact big.Rat oracle unconditionally.
func (m *Model) SolveOracle() (*Solution, error) { return m.oracleSolve() }

// SolveLPOracle solves the LP relaxation with the oracle.
func (m *Model) SolveLPOracle() (*Solution, error) { return m.oracleSolveLP() }

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

// solvePriced is the reuse path of ipet.Skeleton.Solve on a built model:
// the anchor's answer when Price gives one, else SolveWithReuse. priced
// reports which of the two answered.
func (m *Model) solvePriced(r *Reuse, key []int64) (sol *Solution, priced bool, err error) {
	if value, x, ok := r.Price(key, m.NumVars(), m.objective); ok {
		xs := make([]*big.Rat, len(x))
		for i, v := range x {
			xs[i] = new(big.Rat).SetInt64(v)
		}
		return &Solution{Status: Optimal, Value: new(big.Rat).SetInt64(value), X: xs, Nodes: 1}, true, nil
	}
	sol, err = m.SolveWithReuse(r, key)
	return sol, false, err
}

// Add accumulates coef·v into the expression and returns it for chaining.
// The coefficient must fit an int64 rational.
func (l *Lin) Add(v Var, coef *big.Rat) *Lin {
	c, ok := rat64FromBig(coef)
	if !ok {
		panic(fmt.Sprintf("ilp: coefficient %s does not fit int64", coef.RatString()))
	}
	return l.addRat(v, c)
}

// Coef returns the coefficient of v, or nil if absent.
func (l *Lin) Coef(v Var) *big.Rat {
	if i, ok := slices.BinarySearch(l.vars, v); ok {
		return l.coef[i].Rat()
	}
	return nil
}

// SetBounds sets the variable bounds; upper may be nil for +inf. The
// lower bound must be finite.
func (m *Model) SetBounds(v Var, lower, upper *big.Rat) {
	lo := r64Zero
	if lower != nil {
		var ok bool
		if lo, ok = rat64FromBig(lower); !ok {
			panic(fmt.Sprintf("ilp: lower bound %s does not fit int64", lower.RatString()))
		}
	}
	m.lower[v] = lo
	if upper == nil {
		m.upper[v] = r64Zero
		m.upinf[v] = true
		return
	}
	up, ok := rat64FromBig(upper)
	if !ok {
		panic(fmt.Sprintf("ilp: upper bound %s does not fit int64", upper.RatString()))
	}
	m.upper[v] = up
	m.upinf[v] = false
}

// AddConstraint appends a constraint. The terms are copied.
func (m *Model) AddConstraint(name string, terms *Lin, sense Sense, rhs *big.Rat) {
	r, ok := rat64FromBig(rhs)
	if !ok {
		panic(fmt.Sprintf("ilp: rhs %s does not fit int64", rhs.RatString()))
	}
	m.cons = append(m.cons, constraint{name: name, terms: terms.Clone(), sense: sense, rhs: r})
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		names:     slices.Clone(m.names),
		integer:   slices.Clone(m.integer),
		lower:     slices.Clone(m.lower),
		upper:     slices.Clone(m.upper),
		upinf:     slices.Clone(m.upinf),
		objective: m.objective.Clone(),
		cons:      make([]constraint, len(m.cons)),
	}
	for i, con := range m.cons {
		c.cons[i] = constraint{name: con.name, terms: con.terms.Clone(), sense: con.sense, rhs: con.rhs}
	}
	return c
}

// IntValue returns variable v rounded to the nearest integer; it panics if
// the value is not integral (callers use it only for integer variables of
// an Optimal solution).
func (s *Solution) IntValue(v Var) int64 {
	if !s.X[v].IsInt() {
		panic(fmt.Sprintf("variable %d is not integral: %s", v, s.X[v].RatString()))
	}
	return s.X[v].Num().Int64()
}

// oracleSolveLP solves the LP relaxation with exact big.Rat arithmetic.
func (m *Model) oracleSolveLP() (*Solution, error) {
	pivots := 0
	sol, err := m.oracleRoot(&pivots).solveLP()
	if sol != nil {
		sol.Pivots = pivots
	}
	return sol, err
}

// rat64FromBig converts a big.Rat, reporting whether it fits.
func rat64FromBig(x *big.Rat) (rat64, bool) {
	if !x.Num().IsInt64() || !x.Denom().IsInt64() {
		return rat64{}, false
	}
	return mkRat64(x.Num().Int64(), x.Denom().Int64())
}
