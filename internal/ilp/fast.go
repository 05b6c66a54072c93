package ilp

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"
)

// errOverflow aborts the fast int64 solve; the dispatcher retries the
// model on the exact big.Rat oracle.
var errOverflow = errors.New("ilp: int64 arithmetic overflow")

// maxPivots bounds simplex iterations as a defensive backstop; Bland's
// rule guarantees termination, so hitting the bound indicates a bug.
const maxPivots = 1_000_000

// srow is one sparse tableau row: sorted column indices with nonzero
// exact int64-rational values, plus the right-hand side. Columns are
// laid out structural-first, then slacks, then artificials — the same
// layout as the retired dense oracle, so pivot choices coincide.
type srow struct {
	col []int32
	val []rat64
	rhs rat64
}

// at returns the value in column c (zero when absent). Most rows are
// short and miss c entirely, which the range check settles without a
// search.
func (r *srow) at(c int32) rat64 {
	if n := len(r.col); n == 0 || c < r.col[0] || c > r.col[n-1] {
		return r64Zero
	}
	if i, ok := slices.BinarySearch(r.col, c); ok {
		return r.val[i]
	}
	return r64Zero
}

// Reuse caches the anchor of one structural family of models, for
// re-solves that change only the objective (the IPET sweep case: same
// flow structure, new block costs and penalties).
//
// The anchor is the optimal root tableau of the first solve that finishes
// phase 2 under the key at an integral vertex. It takes over that solve's
// rows, so it costs no copy. Price answers a new objective from it without
// a model or a pivot when the anchor vertex is that objective's unique LP
// optimum; the answer is then exactly the cold solve's, because every
// simplex path ends at a unique optimum and branch and bound stops at an
// integral root. Any other objective is solved cold. Which solve installs
// the anchor depends on scheduling once several goroutines share a Reuse,
// so the pivot and hit counts of a run may change with the worker count;
// values, vectors and node counts never do.
//
// The caller passes an exact key identifying everything that shapes the
// constraint rows and bounds (for IPET: the persistence-event rows; the
// skeleton's structure is fixed). A Reuse value is safe for concurrent
// use.
type Reuse struct {
	mu     sync.Mutex
	key    []int64
	anchor *anchor

	hits, misses uint64
}

// anchor is an optimal root tableau and its integral vertex. It is
// immutable once installed, so Price reads it without the lock.
type anchor struct {
	rows  []srow
	basis []int
	ncols int
	x     []int64
}

// Stats reports Price answers (hits) and the root solves under the Reuse
// that reached an LP optimum (misses), for tests and tuning. A declined
// Price counts nothing, since its caller solves next.
func (r *Reuse) Stats() (hits, misses uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// install counts an optimal root solve under key and, if key is new,
// discards the previous key's anchor. It then makes the optimal tableau
// t with vertex x the key's anchor, unless the key has one already or x
// is fractional. t's rows and basis pass to the anchor, so the caller
// must not touch them afterwards.
func (r *Reuse) install(key []int64, t *ftab, x []rat64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.misses++
	if !slices.Equal(r.key, key) {
		r.key, r.anchor = slices.Clone(key), nil
	}
	if r.anchor != nil {
		return
	}
	xi := make([]int64, len(x))
	for i, v := range x {
		if !v.isInt() {
			return
		}
		xi[i] = v.n
	}
	r.anchor = &anchor{rows: t.rows, basis: t.basis, ncols: t.ncols, x: xi}
}

// Price answers the solve of the key's model family with nvars variables
// under objective obj from the anchor, in O(nnz) and without pivots. It
// answers only when every nonbasic reduced cost of obj at the anchor is
// strictly negative, so that the anchor vertex is the unique LP optimum;
// the solve would then report exactly value and x, with Nodes == 1. On
// ok=false — no anchor under the key, a zero or positive reduced cost,
// or int64 overflow — the caller solves as usual. x is the anchor's own
// vector and must not be modified.
func (r *Reuse) Price(key []int64, nvars int, obj *Lin) (value int64, x []int64, ok bool) {
	r.mu.Lock()
	a := r.anchor
	if a == nil || !slices.Equal(r.key, key) || len(a.x) != nvars {
		r.mu.Unlock()
		return 0, nil, false
	}
	r.mu.Unlock()
	w := getWork()
	defer workPool.Put(w)
	if value, ok = a.price(obj, w); !ok {
		return 0, nil, false
	}
	r.mu.Lock()
	r.hits++
	r.mu.Unlock()
	return value, a.x, true
}

// price checks that obj's reduced costs at the anchor are strictly
// negative on every nonbasic column and returns the objective value of
// the anchor vertex. The reduced costs are formed in w's cost buffers;
// the anchor rows are only read.
func (a *anchor) price(obj *Lin, w *work) (int64, bool) {
	t := ftab{rows: a.rows, basis: a.basis, ncols: a.ncols, w: w}
	t.cost = srow{col: w.ccol[:0], val: append(w.cval[:0], obj.coef...), rhs: r64Zero}
	for _, v := range obj.vars {
		t.cost.col = append(t.cost.col, int32(v))
	}
	err := t.priceOut()
	w.ccol, w.cval = t.cost.col, t.cost.val
	// Basic columns are eliminated exactly, so the row holds nonbasic
	// columns only, and each must be present with a negative entry.
	if err != nil || len(t.cost.col) != a.ncols-len(a.basis) {
		return 0, false
	}
	for _, v := range t.cost.val {
		if v.n >= 0 {
			return 0, false
		}
	}
	value := r64Zero
	for i, v := range obj.vars {
		p, ok := obj.coef[i].mul(rat64{a.x[v], 1})
		if !ok {
			return 0, false
		}
		if value, ok = value.add(p); !ok {
			return 0, false
		}
	}
	return value.n, value.isInt()
}

// work is the scratch state of one solve, shared by both simplex phases
// and every branch-and-bound node. Solves take it from workPool, so the
// merge and gather buffers keep their capacity from one solve to the
// next instead of being regrown.
type work struct {
	pivots int // accumulated across phases and B&B nodes
	widest int // longest constraint row a pivot has written, for tests

	// merge scratch of subMul.
	scol []int32
	sval []rat64

	// The entering column as gathered by column: the rows holding a
	// nonzero entry, ascending, and those entries.
	grow []int32
	gval []rat64

	// The cost row of a Price, kept for its capacity.
	ccol []int32
	cval []rat64
}

var workPool = sync.Pool{New: func() any { return new(work) }}

// getWork takes a workspace from the pool with its pivot count reset.
func getWork() *work {
	w := workPool.Get().(*work)
	w.pivots, w.widest = 0, 0
	return w
}

// ftab is the sparse fast tableau.
type ftab struct {
	rows  []srow
	cost  srow
	basis []int
	ncols int
	w     *work

	// firstArt is the first artificial column while phase 1 and
	// evictArtificials run, and 0 otherwise. An artificial that leaves
	// the basis never re-enters, so pivot drops its column instead of
	// spreading it into every row the pivot touches.
	firstArt int32
}

// gallop returns the first index k >= lo with col[k] >= c. It probes
// lo, lo+1, lo+3, lo+7, ... and binary-searches the last bracket, so a
// column near lo costs a few probes however long col is.
func gallop(col []int32, lo int, c int32) int {
	hi, step := lo, 1
	for hi < len(col) && col[hi] < c {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(col))
	k, _ := slices.BinarySearch(col[lo:hi], c)
	return lo + k
}

// subMul computes dst -= f·src (f nonzero). src is the short pivot row
// and dst usually much longer, so the merge walks src, finds each of its
// columns in dst by galloping, and moves the untouched stretch of dst
// before it with one bulk append; arithmetic runs only on src's entries.
// Returns errOverflow when any product or sum leaves int64.
func (t *ftab) subMul(dst, src *srow, f rat64) error {
	cols, vals := t.w.scol[:0], t.w.sval[:0]
	i := 0
	for j, c := range src.col {
		k := gallop(dst.col, i, c)
		cols = append(cols, dst.col[i:k]...)
		vals = append(vals, dst.val[i:k]...)
		fv, ok := f.mul(src.val[j])
		if !ok {
			return errOverflow
		}
		if k < len(dst.col) && dst.col[k] == c {
			nv, ok := dst.val[k].sub(fv)
			if !ok {
				return errOverflow
			}
			if nv.n != 0 {
				cols = append(cols, c)
				vals = append(vals, nv)
			}
			i = k + 1
		} else {
			// Fill-in. fv is nonzero as a product of nonzeros, and mul
			// never returns a MinInt64 numerator, so negating it is exact.
			cols = append(cols, c)
			vals = append(vals, rat64{-fv.n, fv.d})
			i = k
		}
	}
	cols = append(cols, dst.col[i:]...)
	vals = append(vals, dst.val[i:]...)
	fr, ok := f.mul(src.rhs)
	if !ok {
		return errOverflow
	}
	if dst.rhs, ok = dst.rhs.sub(fr); !ok {
		return errOverflow
	}
	dst.col = append(dst.col[:0], cols...)
	dst.val = append(dst.val[:0], vals...)
	t.w.scol, t.w.sval = cols, vals
	return nil
}

// column gathers the nonzero entries of column c over the constraint
// rows into the workspace, in ascending row order.
func (t *ftab) column(c int32) {
	w := t.w
	w.grow, w.gval = w.grow[:0], w.gval[:0]
	for r := range t.rows {
		if a := t.rows[r].at(c); a.n != 0 {
			w.grow = append(w.grow, int32(r))
			w.gval = append(w.gval, a)
		}
	}
}

// pivot makes column c basic in row r. The column must have been
// gathered by column(c) since the last pivot.
func (t *ftab) pivot(r int, c int32) error {
	prow := &t.rows[r]
	p := prow.at(c)
	inv, ok := mkRat64(p.d, p.n)
	if !ok {
		return errOverflow
	}
	for k := range prow.val {
		if prow.val[k], ok = prow.val[k].mul(inv); !ok {
			return errOverflow
		}
	}
	if prow.rhs, ok = prow.rhs.mul(inv); !ok {
		return errOverflow
	}
	if t.firstArt > 0 {
		// Drop the leaving artificial, the one entry the row can hold
		// past firstArt: basic artificials are unit columns, and
		// departed ones stay empty.
		k, _ := slices.BinarySearch(prow.col, t.firstArt)
		prow.col, prow.val = prow.col[:k], prow.val[:k]
	}
	for k, i := range t.w.grow {
		if int(i) == r {
			continue
		}
		if err := t.subMul(&t.rows[i], prow, t.w.gval[k]); err != nil {
			return err
		}
		t.w.widest = max(t.w.widest, len(t.rows[i].col))
	}
	if a := t.cost.at(c); a.n != 0 {
		if err := t.subMul(&t.cost, prow, a); err != nil {
			return err
		}
	}
	t.basis[r] = int(c)
	return nil
}

// priceOut rewrites the cost row in terms of nonbasic variables by
// eliminating the basic columns.
func (t *ftab) priceOut() error {
	for r, b := range t.basis {
		f := t.cost.at(int32(b))
		if f.n == 0 {
			continue
		}
		if err := t.subMul(&t.cost, &t.rows[r], f); err != nil {
			return err
		}
	}
	return nil
}

// run performs primal simplex pivots with Bland's rule until optimality
// or unboundedness. The cost row must already be priced out.
func (t *ftab) run() (Status, error) {
	w := t.w
	for piv := 0; piv < maxPivots; piv++ {
		// Entering: smallest index with positive reduced cost (the cost
		// row is sorted by column, so the first positive entry wins).
		enter := int32(-1)
		for k, c := range t.cost.col {
			if int(c) < t.ncols && t.cost.val[k].n > 0 {
				enter = c
				break
			}
		}
		if enter < 0 {
			// Optimal. Normalize stored objective value to +z.
			if t.cost.rhs.n == math.MinInt64 {
				return 0, errOverflow
			}
			t.cost.rhs.n = -t.cost.rhs.n
			return Optimal, nil
		}
		// Leaving: min ratio rhs/a over a > 0; ties by smallest basis var.
		// The gathered column is reused by the pivot.
		t.column(enter)
		leave := -1
		var best rat64
		for k, a := range w.gval {
			if a.sign() <= 0 {
				continue
			}
			r := int(w.grow[k])
			inv, ok := mkRat64(a.d, a.n)
			if !ok {
				return 0, errOverflow
			}
			ratio, ok := t.rows[r].rhs.mul(inv)
			if !ok {
				return 0, errOverflow
			}
			switch {
			case leave < 0 || ratio.cmp(best) < 0:
				leave = r
				best = ratio
			case ratio.cmp(best) == 0 && t.basis[r] < t.basis[leave]:
				leave = r
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		if err := t.pivot(leave, enter); err != nil {
			return 0, err
		}
		w.pivots++
	}
	panic("ilp: simplex exceeded pivot budget (cycling bug)")
}

// evictArtificials pivots artificial variables out of the basis after a
// successful phase 1, dropping redundant rows, and ends phase 1. Its
// pivots drop the last artificial entries, so the kept rows hold none.
func (t *ftab) evictArtificials() error {
	firstArt := int(t.firstArt)
	// Pivot first, compact after: pivots rewrite rows in place, so every
	// row must stay at its index until all pivots are done. A dropped
	// row is marked by a negative basis entry.
	for r := range t.rows {
		if t.basis[r] < firstArt {
			continue
		}
		// Artificial basic at value 0 (phase 1 succeeded): pivot on the
		// smallest non-artificial column with nonzero coefficient, else
		// the row is redundant and dropped.
		if cols := t.rows[r].col; len(cols) > 0 && int(cols[0]) < firstArt {
			t.column(cols[0])
			if err := t.pivot(r, cols[0]); err != nil {
				return err
			}
		} else {
			t.basis[r] = -1
		}
	}
	kept := 0
	for r := range t.rows {
		if t.basis[r] >= 0 {
			t.rows[kept], t.basis[kept] = t.rows[r], t.basis[r]
			kept++
		}
	}
	clear(t.rows[kept:])
	t.rows, t.basis = t.rows[:kept], t.basis[:kept]
	t.ncols, t.firstArt = firstArt, 0
	return nil
}

// fastLPResult carries an LP outcome in fast arithmetic.
type fastLPResult struct {
	status Status
	x      []rat64
	value  rat64
}

// buildStandard converts the model under the given bounds into tableau
// rows with the oracle's exact column layout. It returns ok=false when
// some variable's bounds are contradictory (the LP is then trivially
// infeasible).
func (m *Model) buildStandard(lower, upper []rat64, upinf []bool) (rows []srow, senses []Sense, ok bool, err error) {
	n := m.NumVars()
	nrows := len(m.cons)
	for _, inf := range upinf {
		if !inf {
			nrows++
		}
	}
	rows = make([]srow, 0, nrows)
	senses = make([]Sense, 0, nrows)
	for _, c := range m.cons {
		row := srow{
			col: make([]int32, len(c.terms.vars), len(c.terms.vars)+2),
			val: make([]rat64, len(c.terms.vars), len(c.terms.vars)+2),
			rhs: c.rhs,
		}
		for i, v := range c.terms.vars {
			row.col[i] = int32(v)
			row.val[i] = c.terms.coef[i]
			if lower[v].n != 0 {
				p, okm := c.terms.coef[i].mul(lower[v])
				if !okm {
					return nil, nil, false, errOverflow
				}
				if row.rhs, okm = row.rhs.sub(p); !okm {
					return nil, nil, false, errOverflow
				}
			}
		}
		rows = append(rows, row)
		senses = append(senses, c.sense)
	}
	for v := 0; v < n; v++ {
		if upinf[v] {
			continue
		}
		span, okm := upper[v].sub(lower[v])
		if !okm {
			return nil, nil, false, errOverflow
		}
		if span.sign() < 0 {
			return nil, nil, false, nil
		}
		rows = append(rows, srow{
			col: append(make([]int32, 0, 3), int32(v)),
			val: append(make([]rat64, 0, 3), r64One),
			rhs: span,
		})
		senses = append(senses, LE)
	}
	// Normalize RHS >= 0.
	for i := range rows {
		if rows[i].rhs.sign() >= 0 {
			continue
		}
		if rows[i].rhs.n == math.MinInt64 {
			return nil, nil, false, errOverflow
		}
		rows[i].rhs.n = -rows[i].rhs.n
		for k := range rows[i].val {
			if rows[i].val[k].n == math.MinInt64 {
				return nil, nil, false, errOverflow
			}
			rows[i].val[k].n = -rows[i].val[k].n
		}
		switch senses[i] {
		case LE:
			senses[i] = GE
		case GE:
			senses[i] = LE
		}
	}
	return rows, senses, true, nil
}

// fastLP solves the LP relaxation under the given bounds in int64
// arithmetic, counting pivots in w. A non-nil reuse is offered the
// optimal root tableau under reuseKey as its anchor.
func (m *Model) fastLP(lower, upper []rat64, upinf []bool, reuse *Reuse, reuseKey []int64, w *work) (fastLPResult, error) {
	n := m.NumVars()
	rows, senses, ok, err := m.buildStandard(lower, upper, upinf)
	if err != nil {
		return fastLPResult{}, err
	}
	if !ok {
		return fastLPResult{status: Infeasible}, nil
	}
	// Column layout: [0,n) structural, then slacks/surplus, then
	// artificials.
	nSlack, nArt := 0, 0
	for _, s := range senses {
		if s != EQ {
			nSlack++
		}
		if s != LE {
			nArt++
		}
	}
	t := &ftab{rows: rows, basis: make([]int, 0, len(rows)), ncols: n + nSlack + nArt, w: w}
	slackAt, artAt := n, n+nSlack
	for i := range rows {
		basic := -1
		switch senses[i] {
		case LE:
			rows[i].col = append(rows[i].col, int32(slackAt))
			rows[i].val = append(rows[i].val, r64One)
			basic = slackAt
			slackAt++
		case GE:
			rows[i].col = append(rows[i].col, int32(slackAt))
			rows[i].val = append(rows[i].val, rat64{-1, 1})
			slackAt++
			rows[i].col = append(rows[i].col, int32(artAt))
			rows[i].val = append(rows[i].val, r64One)
			basic = artAt
			artAt++
		case EQ:
			rows[i].col = append(rows[i].col, int32(artAt))
			rows[i].val = append(rows[i].val, r64One)
			basic = artAt
			artAt++
		}
		t.basis = append(t.basis, basic)
	}
	if nArt > 0 {
		// Phase 1: maximize -(sum of artificials).
		p1 := srow{col: make([]int32, nArt), val: make([]rat64, nArt), rhs: r64Zero}
		for i := 0; i < nArt; i++ {
			p1.col[i] = int32(n + nSlack + i)
			p1.val[i] = rat64{-1, 1}
		}
		t.cost = p1
		if err := t.priceOut(); err != nil {
			return fastLPResult{}, err
		}
		t.firstArt = int32(n + nSlack)
		st, err := t.run()
		if err != nil {
			return fastLPResult{}, err
		}
		if st != Optimal {
			return fastLPResult{}, fmt.Errorf("phase-1 simplex returned %v", st)
		}
		if t.cost.rhs.n != 0 {
			return fastLPResult{status: Infeasible}, nil
		}
		if err := t.evictArtificials(); err != nil {
			return fastLPResult{}, err
		}
	}
	// Phase 2: real objective.
	obj := m.objective
	cost := srow{col: make([]int32, 0, obj.Len()), val: make([]rat64, 0, obj.Len()), rhs: r64Zero}
	for i, v := range obj.vars {
		if int(v) < t.ncols {
			cost.col = append(cost.col, int32(v))
			cost.val = append(cost.val, obj.coef[i])
		}
	}
	t.cost = cost
	if err := t.priceOut(); err != nil {
		return fastLPResult{}, err
	}
	st, err := t.run()
	if err != nil {
		return fastLPResult{}, err
	}
	if st != Optimal {
		return fastLPResult{status: st}, nil
	}
	// Extract the solution in original coordinates.
	x := make([]rat64, n)
	copy(x, lower)
	for r, b := range t.basis {
		if b < n {
			v, ok := lower[b].add(t.rows[r].rhs)
			if !ok {
				return fastLPResult{}, errOverflow
			}
			x[b] = v
		}
	}
	value := r64Zero
	for i, v := range obj.vars {
		p, ok := obj.coef[i].mul(x[v])
		if !ok {
			return fastLPResult{}, errOverflow
		}
		if value, ok = value.add(p); !ok {
			return fastLPResult{}, errOverflow
		}
	}
	if reuse != nil {
		reuse.install(reuseKey, t, x)
	}
	return fastLPResult{status: Optimal, x: x, value: value}, nil
}

// fastSolve runs branch and bound entirely in int64 arithmetic. It
// returns errOverflow when any intermediate value leaves the range; the
// dispatcher then falls back to the big.Rat oracle.
func (m *Model) fastSolve(reuse *Reuse, reuseKey []int64) (*Solution, error) {
	w := getWork()
	defer workPool.Put(w)
	lower := slices.Clone(m.lower)
	upper := slices.Clone(m.upper)
	upinf := slices.Clone(m.upinf)
	root, err := m.fastLP(lower, upper, upinf, reuse, reuseKey, w)
	if err != nil {
		return nil, err
	}
	if root.status != Optimal {
		return &Solution{Status: root.status, Nodes: 1, Pivots: w.pivots}, nil
	}
	var best *fastLPResult
	nodes := 0
	half := rat64{1, 2}

	var descend func(lower, upper []rat64, upinf []bool, lp fastLPResult) error
	descend = func(lower, upper []rat64, upinf []bool, lp fastLPResult) error {
		nodes++
		if nodes > maxNodes {
			return fmt.Errorf("ilp: branch-and-bound exceeded %d nodes", maxNodes)
		}
		if best != nil && lp.value.cmp(best.value) <= 0 {
			return nil // cannot beat the incumbent
		}
		// Find the most fractional integer variable: |frac(x) - 1/2|
		// smallest, first index winning ties.
		branch := -1
		var branchDist rat64
		for v := range m.integer {
			if !m.integer[v] || lp.x[v].isInt() {
				continue
			}
			fl := lp.x[v].floor()
			f, ok := lp.x[v].sub(rat64{fl, 1})
			if !ok {
				return errOverflow
			}
			dist, ok := f.sub(half)
			if !ok {
				return errOverflow
			}
			if dist.n < 0 {
				dist.n = -dist.n
			}
			if branch < 0 || dist.cmp(branchDist) < 0 {
				branch = v
				branchDist = dist
			}
		}
		if branch < 0 {
			// Integral: new incumbent.
			if best == nil || lp.value.cmp(best.value) > 0 {
				best = &lp
			}
			return nil
		}
		fl := rat64{lp.x[branch].floor(), 1}
		// Down branch: x <= floor.
		dLower := slices.Clone(lower)
		dUpper := slices.Clone(upper)
		dUpinf := slices.Clone(upinf)
		if dUpinf[branch] || dUpper[branch].cmp(fl) > 0 {
			dUpper[branch] = fl
			dUpinf[branch] = false
		}
		if dLower[branch].cmp(dUpper[branch]) <= 0 {
			lp2, err := m.fastLP(dLower, dUpper, dUpinf, nil, nil, w)
			if err != nil {
				return err
			}
			if lp2.status == Optimal {
				if err := descend(dLower, dUpper, dUpinf, lp2); err != nil {
					return err
				}
			}
		}
		// Up branch: x >= floor+1.
		if fl.n == math.MaxInt64 {
			return errOverflow
		}
		uLower := slices.Clone(lower)
		uUpper := slices.Clone(upper)
		uUpinf := slices.Clone(upinf)
		lo := rat64{fl.n + 1, 1}
		if uLower[branch].cmp(lo) < 0 {
			uLower[branch] = lo
		}
		if uUpinf[branch] || uLower[branch].cmp(uUpper[branch]) <= 0 {
			lp2, err := m.fastLP(uLower, uUpper, uUpinf, nil, nil, w)
			if err != nil {
				return err
			}
			if lp2.status == Optimal {
				if err := descend(uLower, uUpper, uUpinf, lp2); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := descend(lower, upper, upinf, root); err != nil {
		return nil, err
	}
	if best == nil {
		return &Solution{Status: Infeasible, Nodes: nodes, Pivots: w.pivots}, nil
	}
	return best.solution(nodes, w.pivots), nil
}

// solution converts a fast LP result to the public exact form.
func (r *fastLPResult) solution(nodes, pivots int) *Solution {
	xs := make([]*big.Rat, len(r.x))
	for i := range r.x {
		xs[i] = r.x[i].Rat()
	}
	return &Solution{Status: Optimal, Value: r.value.Rat(), X: xs, Nodes: nodes, Pivots: pivots}
}
