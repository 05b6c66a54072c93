package ilp

import (
	"fmt"
	"math/big"
)

// This file is the retired dense exact-rational solver: the original
// two-phase big.Rat simplex plus branch and bound, kept as (a) the
// fallback when the fast int64 path overflows and (b) the oracle the
// fast path is differentially tested against. It implements exactly the
// same pivoting and branching rules as the fast path, so the two agree
// on the full solution vector, not just the objective.

// rtab is a dense exact-rational simplex tableau.
//
// Layout: rows[r][c] for c < ncols are coefficients, rows[r][ncols] is the
// right-hand side. cost holds reduced costs; cost[ncols] is the current
// objective value (stored as -z until optimality). basis[r] is the
// variable index basic in row r.
type rtab struct {
	rows  [][]*big.Rat
	cost  []*big.Rat
	basis []int
	ncols int

	// firstArt is the first artificial column during phase 1, and 0
	// otherwise. The fast path drops an artificial's column when it
	// leaves the basis, so no artificial can re-enter there; run keeps
	// the same rule by never entering one.
	firstArt int
}

// oracleNode is one branch-and-bound subproblem: the shared immutable
// model plus private bounds.
type oracleNode struct {
	m      *Model
	lower  []*big.Rat
	upper  []*big.Rat // nil = +inf
	pivots *int
}

func (m *Model) oracleRoot(pivots *int) *oracleNode {
	n := m.NumVars()
	nd := &oracleNode{m: m, lower: make([]*big.Rat, n), upper: make([]*big.Rat, n), pivots: pivots}
	for v := 0; v < n; v++ {
		nd.lower[v] = m.lower[v].Rat()
		if !m.upinf[v] {
			nd.upper[v] = m.upper[v].Rat()
		}
	}
	return nd
}

func (nd *oracleNode) clone() *oracleNode {
	c := &oracleNode{m: nd.m, lower: make([]*big.Rat, len(nd.lower)), upper: make([]*big.Rat, len(nd.upper)), pivots: nd.pivots}
	for v := range nd.lower {
		c.lower[v] = new(big.Rat).Set(nd.lower[v])
		if nd.upper[v] != nil {
			c.upper[v] = new(big.Rat).Set(nd.upper[v])
		}
	}
	return c
}

// solveLP solves the LP relaxation of the node (ignoring integrality).
// The returned values are in original coordinates.
func (nd *oracleNode) solveLP() (*Solution, error) {
	m := nd.m
	n := m.NumVars()
	// Shift variables by lower bounds: y = x - l, y >= 0.
	// Build rows: structural constraints plus upper-bound rows.
	type row struct {
		coef  []*big.Rat
		sense Sense
		rhs   *big.Rat
	}
	var rows []row
	t := new(big.Rat)
	for _, c := range m.cons {
		coef := make([]*big.Rat, n)
		rhs := c.rhs.Rat()
		for i, v := range c.terms.vars {
			a := c.terms.coef[i].Rat()
			coef[v] = a
			rhs.Sub(rhs, t.Mul(a, nd.lower[v]))
		}
		rows = append(rows, row{coef: coef, sense: c.sense, rhs: rhs})
	}
	for v := 0; v < n; v++ {
		if nd.upper[v] == nil {
			continue
		}
		span := new(big.Rat).Sub(nd.upper[v], nd.lower[v])
		if span.Sign() < 0 {
			return &Solution{Status: Infeasible, Nodes: 1}, nil
		}
		coef := make([]*big.Rat, n)
		coef[v] = big.NewRat(1, 1)
		rows = append(rows, row{coef: coef, sense: LE, rhs: span})
	}
	// Normalize RHS >= 0.
	for i := range rows {
		if rows[i].rhs.Sign() < 0 {
			rows[i].rhs.Neg(rows[i].rhs)
			for v, a := range rows[i].coef {
				if a != nil {
					rows[i].coef[v] = a.Neg(a)
				}
			}
			switch rows[i].sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
	}
	// Column layout: [0,n) structural, then slacks/surplus, then artificials.
	nSlack := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rows {
		if r.sense != LE {
			nArt++
		}
	}
	ncols := n + nSlack + nArt
	tb := &rtab{ncols: ncols}
	slackAt, artAt := n, n+nSlack
	for _, r := range rows {
		tr := make([]*big.Rat, ncols+1)
		for c := range tr {
			tr[c] = new(big.Rat)
		}
		for v, a := range r.coef {
			if a != nil {
				tr[v].Set(a)
			}
		}
		tr[ncols].Set(r.rhs)
		basic := -1
		switch r.sense {
		case LE:
			tr[slackAt].SetInt64(1)
			basic = slackAt
			slackAt++
		case GE:
			tr[slackAt].SetInt64(-1)
			slackAt++
			tr[artAt].SetInt64(1)
			basic = artAt
			artAt++
		case EQ:
			tr[artAt].SetInt64(1)
			basic = artAt
			artAt++
		}
		tb.rows = append(tb.rows, tr)
		tb.basis = append(tb.basis, basic)
	}

	if nArt > 0 {
		// Phase 1: maximize -(sum of artificials).
		phase1 := make([]*big.Rat, ncols+1)
		for c := range phase1 {
			phase1[c] = new(big.Rat)
		}
		for c := n + nSlack; c < ncols; c++ {
			phase1[c].SetInt64(-1)
		}
		tb.cost = phase1
		tb.priceOut()
		tb.firstArt = n + nSlack
		if st := tb.run(nd.pivots); st != Optimal {
			return nil, fmt.Errorf("phase-1 simplex returned %v", st)
		}
		tb.firstArt = 0
		if tb.cost[ncols].Sign() != 0 {
			return &Solution{Status: Infeasible, Nodes: 1}, nil
		}
		tb.evictArtificials(n + nSlack)
	}
	// Phase 2: real objective. Note tb.ncols may have shrunk when
	// artificial columns were evicted.
	cost := make([]*big.Rat, tb.ncols+1)
	for c := range cost {
		cost[c] = new(big.Rat)
	}
	for i, v := range m.objective.vars {
		cost[v].Set(m.objective.coef[i].Rat())
	}
	tb.cost = cost
	tb.priceOut()
	if st := tb.run(nd.pivots); st != Optimal {
		return &Solution{Status: st, Nodes: 1}, nil
	}
	// Extract solution.
	x := make([]*big.Rat, n)
	for v := 0; v < n; v++ {
		x[v] = new(big.Rat).Set(nd.lower[v])
	}
	for r, b := range tb.basis {
		if b < n {
			x[b].Add(nd.lower[b], tb.rows[r][tb.ncols])
		}
	}
	return &Solution{Status: Optimal, Value: m.objective.Eval(x), X: x, Nodes: 1}, nil
}

// priceOut rewrites the cost row in terms of nonbasic variables by
// eliminating the basic columns.
func (tb *rtab) priceOut() {
	t := new(big.Rat)
	for r, b := range tb.basis {
		cb := tb.cost[b]
		if cb.Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(cb)
		for c := 0; c <= tb.ncols; c++ {
			if tb.rows[r][c].Sign() != 0 {
				tb.cost[c].Sub(tb.cost[c], t.Mul(f, tb.rows[r][c]))
			}
		}
		// cost[ncols] accumulated -f*rhs; objective value convention:
		// cost[ncols] tracks -z, negated to +z at optimality in run.
	}
}

// run performs primal simplex pivots with Bland's rule until optimality
// or unboundedness. The cost row must already be priced out.
func (tb *rtab) run(pivots *int) Status {
	for piv := 0; piv < maxPivots; piv++ {
		// Entering: smallest index with positive reduced cost, never an
		// artificial.
		limit := tb.ncols
		if tb.firstArt > 0 {
			limit = tb.firstArt
		}
		enter := -1
		for c := 0; c < limit; c++ {
			if tb.cost[c].Sign() > 0 {
				enter = c
				break
			}
		}
		if enter < 0 {
			// Optimal. Normalize stored objective value to +z.
			tb.cost[tb.ncols].Neg(tb.cost[tb.ncols])
			return Optimal
		}
		// Leaving: min ratio rhs/a over a > 0; ties by smallest basis var.
		leave := -1
		var best *big.Rat
		ratio := new(big.Rat)
		for r := 0; r < len(tb.rows); r++ {
			a := tb.rows[r][enter]
			if a.Sign() <= 0 {
				continue
			}
			ratio.Quo(tb.rows[r][tb.ncols], a)
			switch {
			case leave < 0 || ratio.Cmp(best) < 0:
				leave = r
				best = new(big.Rat).Set(ratio)
			case ratio.Cmp(best) == 0 && tb.basis[r] < tb.basis[leave]:
				leave = r
			}
		}
		if leave < 0 {
			return Unbounded
		}
		tb.pivot(leave, enter)
		*pivots++
	}
	panic("ilp: simplex exceeded pivot budget (cycling bug)")
}

// pivot makes column c basic in row r.
func (tb *rtab) pivot(r, c int) {
	prow := tb.rows[r]
	inv := new(big.Rat).Inv(prow[c])
	for j := 0; j <= tb.ncols; j++ {
		prow[j].Mul(prow[j], inv)
	}
	t := new(big.Rat)
	for i := 0; i < len(tb.rows); i++ {
		if i == r || tb.rows[i][c].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(tb.rows[i][c])
		for j := 0; j <= tb.ncols; j++ {
			if prow[j].Sign() != 0 {
				tb.rows[i][j].Sub(tb.rows[i][j], t.Mul(f, prow[j]))
			}
		}
	}
	if tb.cost[c].Sign() != 0 {
		f := new(big.Rat).Set(tb.cost[c])
		for j := 0; j <= tb.ncols; j++ {
			if prow[j].Sign() != 0 {
				tb.cost[j].Sub(tb.cost[j], t.Mul(f, prow[j]))
			}
		}
	}
	tb.basis[r] = c
}

// evictArtificials pivots artificial variables out of the basis after a
// successful phase 1, dropping redundant rows.
func (tb *rtab) evictArtificials(firstArt int) {
	var keepRows [][]*big.Rat
	var keepBasis []int
	for r := 0; r < len(tb.rows); r++ {
		if tb.basis[r] < firstArt {
			keepRows = append(keepRows, tb.rows[r])
			keepBasis = append(keepBasis, tb.basis[r])
			continue
		}
		// Artificial basic at value 0 (phase 1 succeeded): pivot on any
		// non-artificial column with nonzero coefficient, else the row is
		// redundant and dropped.
		pivoted := false
		for c := 0; c < firstArt; c++ {
			if tb.rows[r][c].Sign() != 0 {
				tb.pivot(r, c)
				pivoted = true
				break
			}
		}
		if pivoted {
			keepRows = append(keepRows, tb.rows[r])
			keepBasis = append(keepBasis, tb.basis[r])
		}
	}
	tb.rows = keepRows
	tb.basis = keepBasis
	// Truncate artificial columns.
	tb.ncols = firstArt
	for r := range tb.rows {
		tb.rows[r] = append(tb.rows[r][:firstArt], tb.rows[r][len(tb.rows[r])-1])
	}
}

// oracleSolve maximizes the objective with exact big.Rat arithmetic,
// enforcing integrality by depth-first branch and bound.
func (m *Model) oracleSolve() (*Solution, error) {
	pivots := 0
	rootNode := m.oracleRoot(&pivots)
	root, err := rootNode.solveLP()
	if err != nil {
		return nil, err
	}
	if root.Status != Optimal {
		root.Pivots = pivots
		return root, nil
	}
	var best *Solution
	nodes := 0
	half := big.NewRat(1, 2)

	var descend func(node *oracleNode, lp *Solution) error
	descend = func(node *oracleNode, lp *Solution) error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("ilp: branch-and-bound exceeded %d nodes", maxNodes)
		}
		if best != nil && lp.Value.Cmp(best.Value) <= 0 {
			return nil // cannot beat the incumbent
		}
		// Find the most fractional integer variable.
		branch := -1
		var branchDist *big.Rat
		frac := new(big.Rat)
		for v := range m.integer {
			if !m.integer[v] || lp.X[v].IsInt() {
				continue
			}
			// Distance from nearest half-integer measures fractionality:
			// |frac(x) - 1/2| smallest = most fractional.
			f := fracPart(lp.X[v])
			frac.Sub(f, half)
			frac.Abs(frac)
			if branch < 0 || frac.Cmp(branchDist) < 0 {
				branch = v
				branchDist = new(big.Rat).Set(frac)
			}
		}
		if branch < 0 {
			// Integral: new incumbent.
			if best == nil || lp.Value.Cmp(best.Value) > 0 {
				best = lp
			}
			return nil
		}
		fl := floorRat(lp.X[branch])
		// Down branch: x <= floor.
		down := node.clone()
		upBound := new(big.Rat).Set(fl)
		if down.upper[branch] == nil || down.upper[branch].Cmp(upBound) > 0 {
			down.upper[branch] = upBound
		}
		if down.lower[branch].Cmp(down.upper[branch]) <= 0 {
			if lp2, err := down.solveLP(); err != nil {
				return err
			} else if lp2.Status == Optimal {
				if err := descend(down, lp2); err != nil {
					return err
				}
			}
		}
		// Up branch: x >= floor+1.
		up := node.clone()
		loBound := new(big.Rat).Add(fl, big.NewRat(1, 1))
		if up.lower[branch].Cmp(loBound) < 0 {
			up.lower[branch] = loBound
		}
		if up.upper[branch] == nil || up.lower[branch].Cmp(up.upper[branch]) <= 0 {
			if lp2, err := up.solveLP(); err != nil {
				return err
			} else if lp2.Status == Optimal {
				if err := descend(up, lp2); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := descend(rootNode, root); err != nil {
		return nil, err
	}
	if best == nil {
		return &Solution{Status: Infeasible, Nodes: nodes, Pivots: pivots}, nil
	}
	best.Nodes = nodes
	best.Pivots = pivots
	return best, nil
}

// fracPart returns x - floor(x) in [0, 1).
func fracPart(x *big.Rat) *big.Rat {
	return new(big.Rat).Sub(x, floorRat(x))
}

// floorRat returns floor(x) as a rational.
func floorRat(x *big.Rat) *big.Rat {
	q := new(big.Int).Quo(x.Num(), x.Denom())
	if x.Sign() < 0 && !x.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}
