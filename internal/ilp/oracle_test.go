package ilp

import (
	"math/big"
	"math/rand"
	"testing"
)

// The differential suite: the sparse int64 fast path must agree with the
// retired dense big.Rat oracle on the ENTIRE solution — status, objective,
// every variable value and the branch-and-bound node count — because both
// implement the same pivoting and branching rules. Anything less than
// full-vector agreement would let the two paths drift to different (even
// if equally optimal) vertices, which would make batch outputs depend on
// which path ran.

// assertSolutionsEqual compares two solutions field by field.
func assertSolutionsEqual(t *testing.T, fast, oracle *Solution, m *Model) {
	t.Helper()
	if fast.Status != oracle.Status {
		t.Fatalf("status: fast %v, oracle %v\n%s", fast.Status, oracle.Status, m)
	}
	if fast.Status != Optimal {
		return
	}
	if fast.Value.Cmp(oracle.Value) != 0 {
		t.Fatalf("value: fast %s, oracle %s\n%s", fast.Value.RatString(), oracle.Value.RatString(), m)
	}
	for v := range fast.X {
		if fast.X[v].Cmp(oracle.X[v]) != 0 {
			t.Fatalf("x[%d]: fast %s, oracle %s\n%s", v, fast.X[v].RatString(), oracle.X[v].RatString(), m)
		}
	}
	if fast.Nodes != oracle.Nodes {
		t.Fatalf("nodes: fast %d, oracle %d\n%s", fast.Nodes, oracle.Nodes, m)
	}
}

// randomIPETModel builds a random IPET-shaped model: a chain of diamonds
// (flow conservation, EQ rows) with occasional bound rows and random
// integer costs — the exact constraint structure WCET computation emits.
func randomIPETModel(rng *rand.Rand) *Model {
	m := NewModel()
	k := 1 + rng.Intn(6)
	prev := m.AddIntVar("")
	m.AddConstraintInt("", NewLin().AddInt(prev, 1), EQ, 1)
	obj := NewLin()
	for i := 0; i < k; i++ {
		a, b := m.AddIntVar(""), m.AddIntVar("")
		out := m.AddIntVar("")
		m.AddConstraintInt("", NewLin().AddInt(prev, 1).AddInt(a, -1).AddInt(b, -1), EQ, 0)
		m.AddConstraintInt("", NewLin().AddInt(out, 1).AddInt(a, -1).AddInt(b, -1), EQ, 0)
		obj.AddInt(a, int64(rng.Intn(40)))
		obj.AddInt(b, int64(rng.Intn(40)))
		// Occasional loop-bound-style row: a repeats up to B times per entry.
		if rng.Intn(2) == 0 {
			bound := int64(1 + rng.Intn(7))
			m.AddConstraintInt("", NewLin().AddInt(a, 1).AddInt(prev, -bound), LE, 0)
		}
		prev = out
	}
	m.SetObjective(obj)
	return m
}

// loopNestGen builds the control-flow graph of a loop-nest task, the
// shape behind IPET's long tableau rows: nested loops whose bodies are
// chains of diamonds, with one bound row per loop over its entry edge.
type loopNestGen struct {
	rng    *rand.Rand
	blocks int
	edges  [][2]int
	loops  []genLoop
}

// genLoop is one natural loop: its entry and back edge, its bound, and
// the blocks of its body (inner loops included).
type genLoop struct {
	entry, back int
	bound       int64
	body        []int
}

func (g *loopNestGen) block() int {
	g.blocks++
	return g.blocks - 1
}

func (g *loopNestGen) edge(from, to int) int {
	g.edges = append(g.edges, [2]int{from, to})
	return len(g.edges) - 1
}

// loop emits a loop entered from block from: a header, a body of
// diamonds with an inner loop when depth > 1, the back edge and the
// exit block, which it returns.
func (g *loopNestGen) loop(from, depth, diamonds int) int {
	first := g.blocks
	h := g.block()
	entry := g.edge(from, h)
	cur := g.block()
	g.edge(h, cur)
	for d := 0; d < diamonds; d++ {
		a, b, j := g.block(), g.block(), g.block()
		g.edge(cur, a)
		g.edge(cur, b)
		g.edge(a, j)
		g.edge(b, j)
		cur = j
	}
	if depth > 1 {
		cur = g.loop(cur, depth-1, diamonds)
	}
	back := g.edge(cur, h)
	body := make([]int, 0, g.blocks-first)
	for b := first; b < g.blocks; b++ {
		body = append(body, b)
	}
	g.loops = append(g.loops, genLoop{entry: entry, back: back, bound: int64(2 + g.rng.Intn(30)), body: body})
	exit := g.block()
	g.edge(h, exit)
	return exit
}

// loopNestIPETModel builds the IPET model of a seeded loop-nest task the
// way ipet.Skeleton.Solve does: block and edge count variables, in and
// out flow rows per block, one bound row per loop, and events events per
// loop, each a persistence variable capped by the loop's entries and by
// one body block's count. Long nests make the tableau rows fill in to
// dozens of entries, which the small diamond chains never do.
func loopNestIPETModel(rng *rand.Rand, nests, depth, diamonds, events int) *Model {
	g := &loopNestGen{rng: rng}
	cur := g.block()
	for i := 0; i < nests; i++ {
		cur = g.loop(cur, depth, diamonds)
	}
	exit := cur
	m := NewModel()
	bv := make([]Var, g.blocks)
	for b := range bv {
		bv[b] = m.AddIntVar("")
	}
	ev := make([]Var, len(g.edges))
	for e := range ev {
		ev[e] = m.AddIntVar("")
	}
	in := make([]*Lin, g.blocks)
	out := make([]*Lin, g.blocks)
	for b := range bv {
		in[b] = NewLin().AddInt(bv[b], 1)
		out[b] = NewLin().AddInt(bv[b], 1)
	}
	for e, fromTo := range g.edges {
		out[fromTo[0]].AddInt(ev[e], -1)
		in[fromTo[1]].AddInt(ev[e], -1)
	}
	obj := NewLin()
	for b := range bv {
		var inRHS, outRHS int64
		if b == 0 {
			inRHS = 1
		}
		if b == exit {
			outRHS = 1
		}
		m.AddConstraintInt("", in[b], EQ, inRHS)
		m.AddConstraintInt("", out[b], EQ, outRHS)
		obj.AddInt(bv[b], int64(1+rng.Intn(40)))
	}
	for _, l := range g.loops {
		m.AddConstraintInt("", NewLin().AddInt(ev[l.back], 1).AddInt(ev[l.entry], -(l.bound-1)), LE, 0)
	}
	for _, l := range g.loops {
		for i := 0; i < events; i++ {
			mv := m.AddIntVar("")
			m.AddConstraintInt("", NewLin().AddInt(mv, 1).AddInt(ev[l.entry], -1), LE, 0)
			m.AddConstraintInt("", NewLin().AddInt(mv, 1).AddInt(bv[l.body[rng.Intn(len(l.body))]], -1), LE, 0)
			obj.AddInt(mv, int64(10+rng.Intn(90)))
		}
	}
	m.SetObjective(obj)
	return m
}

func TestFastMatchesOracleIPETShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		m := randomIPETModel(rng)
		fast, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, m)
		}
		if fast.FellBack {
			t.Fatalf("trial %d: small IPET model fell back to the oracle\n%s", trial, m)
		}
		oracle, err := m.SolveOracle()
		if err != nil {
			t.Fatalf("trial %d oracle: %v\n%s", trial, err, m)
		}
		assertSolutionsEqual(t, fast, oracle, m)
		if fast.Pivots != oracle.Pivots {
			t.Fatalf("trial %d: pivots fast %d, oracle %d\n%s", trial, fast.Pivots, oracle.Pivots, m)
		}
	}
}

// addDenseRows adds rows dense rows to m, each summing every 1st, 2nd
// or 3rd variable under a right-hand side far above any flow the
// loop-nest models carry. Their slacks stay basic, but every pivot
// whose entering column they hold rewrites them, so the row update
// runs on rows of 90 entries and more. The IPET rows themselves stay
// short, since phase 1 drops each artificial column that leaves the
// basis.
func addDenseRows(rng *rand.Rand, m *Model, rows int) {
	n := m.NumVars()
	for range rows {
		stride := 1 + rng.Intn(3)
		l := NewLin()
		for v := 0; v < n; v += stride {
			l.AddInt(Var(v), 1)
		}
		m.AddConstraintInt("", l, LE, 1_000_000)
	}
}

// TestFastMatchesOracleLoopNests pins the fast path against the oracle
// on loop-nest IPET models of 300 rows and more, with dense rows added
// so that pivots rewrite rows of 50 entries and more. The diamond
// chains above never build such rows, so only this suite reaches the
// bulk-copy row update on long rows.
func TestFastMatchesOracleLoopNests(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		m := loopNestIPETModel(rng, 5+rng.Intn(2), 2+rng.Intn(2), 2, 6+rng.Intn(3))
		addDenseRows(rng, m, 2)
		if m.NumCons() < 300 {
			t.Fatalf("trial %d: %d rows, want at least 300", trial, m.NumCons())
		}
		w := new(work)
		if _, err := m.fastLP(m.lower, m.upper, m.upinf, nil, nil, w); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if w.widest < 50 {
			t.Fatalf("trial %d: widest updated row has %d entries, want at least 50", trial, w.widest)
		}
		fast, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fast.FellBack {
			t.Fatalf("trial %d: loop-nest model fell back to the oracle", trial)
		}
		oracle, err := m.SolveOracle()
		if err != nil {
			t.Fatalf("trial %d oracle: %v", trial, err)
		}
		assertSolutionsEqual(t, fast, oracle, m)
		if fast.Pivots != oracle.Pivots {
			t.Fatalf("trial %d: pivots fast %d, oracle %d", trial, fast.Pivots, oracle.Pivots)
		}
	}
}

// TestLoopNestPivotsGolden pins the pivot count of one seeded loop-nest
// solve. Pivots are a deterministic work counter: any change to the
// pivot rule, the column layout or the tie breaks moves it, and with it
// the LP vertex that IPET reports its block and edge counts from.
func TestLoopNestPivotsGolden(t *testing.T) {
	m := loopNestIPETModel(rand.New(rand.NewSource(7)), 8, 2, 1, 11)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	const wantPivots, wantNodes = 411, 1
	if sol.Pivots != wantPivots || sol.Nodes != wantNodes || sol.FellBack {
		t.Fatalf("pivots %d nodes %d fellBack %v, want %d %d false", sol.Pivots, sol.Nodes, sol.FellBack, wantPivots, wantNodes)
	}
}

// TestPhase1DropsDepartedArtificials checks that phase 1 does not
// spread departed artificial columns into the rows it updates: on the
// seed-7 loop nest that fill-in made rows of 50 entries and more, and
// was most of what a solve allocated. It also checks that the optimal
// root tableau the anchor keeps holds no artificial column at all.
func TestPhase1DropsDepartedArtificials(t *testing.T) {
	m := loopNestIPETModel(rand.New(rand.NewSource(7)), 8, 2, 1, 11)
	var r Reuse
	w := new(work)
	if _, err := m.fastLP(m.lower, m.upper, m.upinf, &r, []int64{1}, w); err != nil {
		t.Fatal(err)
	}
	a := r.anchor
	if a == nil {
		t.Fatal("no anchor installed")
	}
	if w.widest >= 20 {
		t.Fatalf("widest updated row has %d entries, want under 20", w.widest)
	}
	for i, row := range a.rows {
		if n := len(row.col); n > 0 && int(row.col[n-1]) >= a.ncols {
			t.Fatalf("anchor row %d holds column %d, past the %d kept columns", i, row.col[n-1], a.ncols)
		}
	}
}

// TestFastMatchesOracleGeneral stresses the comparison on general random
// models: mixed senses, rational right-hand sides, negative lower bounds,
// finite upper bounds, mixed integer/continuous variables.
func TestFastMatchesOracleGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(3)
		m := NewModel()
		vars := make([]Var, n)
		obj := NewLin()
		for i := range vars {
			if rng.Intn(3) == 0 {
				vars[i] = m.AddVar("")
			} else {
				vars[i] = m.AddIntVar("")
			}
			lo := big.NewRat(int64(rng.Intn(7)-3), 1)
			var up *big.Rat
			if rng.Intn(2) == 0 {
				up = new(big.Rat).Add(lo, big.NewRat(int64(rng.Intn(9)), 1))
			}
			m.SetBounds(vars[i], lo, up)
			obj.AddInt(vars[i], int64(rng.Intn(13)-4))
		}
		m.SetObjective(obj)
		for c := 0; c < 1+rng.Intn(3); c++ {
			l := NewLin()
			for i := range vars {
				l.Add(vars[i], big.NewRat(int64(rng.Intn(9)-3), int64(1+rng.Intn(2))))
			}
			m.AddConstraint("", l, Sense(rng.Intn(3)), big.NewRat(int64(rng.Intn(17)-4), int64(1+rng.Intn(2))))
		}
		fast, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, m)
		}
		oracle, err := m.SolveOracle()
		if err != nil {
			t.Fatalf("trial %d oracle: %v\n%s", trial, err, m)
		}
		if fast.FellBack {
			// Overflow fallback IS the oracle; agreement is trivial, but
			// record that the dispatcher said so honestly.
			continue
		}
		// Unbounded detection can legitimately differ in which status is
		// reported first only if the algorithms diverged — they must not.
		assertSolutionsEqual(t, fast, oracle, m)
		if fast.Pivots != oracle.Pivots {
			t.Fatalf("trial %d: pivots fast %d, oracle %d\n%s", trial, fast.Pivots, oracle.Pivots, m)
		}
	}
}

// TestLPFastMatchesOracle pins the pure LP path as well.
func TestLPFastMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		m := randomIPETModel(rng)
		fast, err := m.SolveLP()
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := m.SolveLPOracle()
		if err != nil {
			t.Fatal(err)
		}
		assertSolutionsEqual(t, fast, oracle, m)
	}
}

// TestSolverStats asserts the solver statistics are populated: pivots on
// a nontrivial solve, and no fallback for in-range arithmetic.
func TestSolverStats(t *testing.T) {
	m := randomIPETModel(rand.New(rand.NewSource(53)))
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Pivots <= 0 {
		t.Errorf("Pivots = %d, want > 0", sol.Pivots)
	}
	if sol.FellBack {
		t.Error("FellBack = true on a small integer model")
	}
	if sol.Nodes <= 0 {
		t.Errorf("Nodes = %d, want > 0", sol.Nodes)
	}
}

// TestOverflowFallsBackToOracle forces int64 overflow (objective value
// beyond MaxInt64) and checks the solve silently completes on the oracle
// with the exact answer and FellBack set.
func TestOverflowFallsBackToOracle(t *testing.T) {
	m := NewModel()
	x, y := m.AddIntVar("x"), m.AddIntVar("y")
	huge := int64(1) << 62
	m.AddConstraintInt("cap", NewLin().AddInt(x, 1).AddInt(y, 1), LE, 3)
	m.SetObjective(NewLin().AddInt(x, huge).AddInt(y, huge))
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sol.FellBack {
		t.Fatal("expected overflow fallback")
	}
	want := new(big.Rat).SetInt64(3)
	want.Mul(want, new(big.Rat).SetInt64(huge))
	if sol.Status != Optimal || sol.Value.Cmp(want) != 0 {
		t.Fatalf("status %v value %s, want optimal %s", sol.Status, sol.Value.RatString(), want.RatString())
	}
}

// checkPricedSequence re-prices m under each objective of objs on one
// Reuse, as a sweep re-prices a skeleton, and checks every answer — from
// the anchor or from a solve — against the oracle's cold solve in status,
// value, full vector and nodes. Every answer but the anchor's, which
// takes no pivots, and a fallback's must also match the oracle's pivot
// count: a solve that Price declined runs cold. It returns how many
// answers came from the anchor.
func checkPricedSequence(t *testing.T, m *Model, objs []*Lin) (priced int) {
	t.Helper()
	var r Reuse
	key := []int64{1}
	for i, obj := range objs {
		m.SetObjective(obj)
		got, fromAnchor, err := m.solvePriced(&r, key)
		if err != nil {
			t.Fatalf("objective %d: %v\n%s", i, err, m)
		}
		oracle, err := m.SolveOracle()
		if err != nil {
			t.Fatalf("objective %d oracle: %v\n%s", i, err, m)
		}
		assertSolutionsEqual(t, got, oracle, m)
		switch {
		case fromAnchor:
			priced++
		case got.FellBack:
		case got.Pivots != oracle.Pivots:
			t.Fatalf("objective %d: pivots %d, oracle %d\n%s", i, got.Pivots, oracle.Pivots, m)
		}
	}
	// An optimal int64 root solve under another key replaces the anchor,
	// and Price answers only under the key its anchor was installed with.
	sol, err := m.SolveWithReuse(&r, []int64{2})
	if err != nil {
		t.Fatalf("solve under a new key: %v\n%s", err, m)
	}
	if _, _, ok := r.Price(key, m.NumVars(), m.objective); ok && sol.Status == Optimal && !sol.FellBack {
		t.Fatalf("Price answered from the anchor of a replaced key\n%s", m)
	}
	return priced
}

// TestPriceMatchesOracleSequences drives one Reuse per loop-nest IPET
// model over a sequence of objectives, as a sweep re-prices a skeleton:
// the model's own costs, small perturbations of them, a repeat, and flat
// costs whose tied paths leave the anchor optimal but not unique, so both
// the anchor answer and the cold solve after a declined Price are
// exercised.
func TestPriceMatchesOracleSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	priced, total := 0, 0
	for trial := 0; trial < 4; trial++ {
		m := loopNestIPETModel(rng, 2+rng.Intn(2), 2, 1, 2)
		base := m.objective
		objs := []*Lin{base}
		for step := 1; step < 10; step++ {
			obj := NewLin()
			for i, v := range base.vars {
				c := base.coef[i].n + int64(rng.Intn(4))
				if step%4 == 3 {
					c = 7
				}
				obj.AddInt(v, c)
			}
			objs = append(objs, obj)
		}
		objs = append(objs, base)
		priced += checkPricedSequence(t, m, objs)
		total += len(objs)
	}
	if priced == 0 || priced == total-4 {
		t.Fatalf("%d of %d answers came from the anchor; the sequences must exercise both paths", priced, total)
	}
	t.Logf("%d of %d answers came from the anchor", priced, total)
}

// FuzzILPOracle decodes arbitrary bytes into a small bounded ILP and
// cross-checks the fast path against the oracle, pivot counts included
// unless the solve fell back. It then re-prices the model under three
// more objectives decoded from the bytes on one Reuse, and checks every
// answer, from the anchor or a solve, against the oracle's cold solve.
func FuzzILPOracle(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 200, 1, 2, 0, 5, 1, 1})
	f.Add([]byte{3, 2, 0, 0, 0, 9, 9, 9, 1, 2, 3, 4, 5, 6})
	// max 5v0+5v2 s.t. 2v0+4v1-2v2 >= 8, 4v0-2v1+v2 = 7: Bland's rule
	// re-enters a departed artificial here unless barred, so the pivot
	// counts differ if only one path bars it.
	f.Add([]byte("2X71"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		pos := 0
		next := func() int {
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		m := NewModel()
		n := 1 + next()%3
		vars := make([]Var, n)
		obj := NewLin()
		for i := range vars {
			vars[i] = m.AddIntVar("")
			m.SetBounds(vars[i], big.NewRat(0, 1), big.NewRat(int64(next()%6), 1))
			obj.AddInt(vars[i], int64(next()%15-5))
		}
		m.SetObjective(obj)
		nc := 1 + next()%3
		for c := 0; c < nc; c++ {
			l := NewLin()
			for i := range vars {
				l.AddInt(vars[i], int64(next()%9-3))
			}
			m.AddConstraintInt("", l, Sense(next()%3), int64(next()%13-3))
		}
		fast, err := m.Solve()
		if err != nil {
			t.Fatalf("fast: %v\n%s", err, m)
		}
		oracle, err := m.SolveOracle()
		if err != nil {
			t.Fatalf("oracle: %v\n%s", err, m)
		}
		assertSolutionsEqual(t, fast, oracle, m)
		if !fast.FellBack && fast.Pivots != oracle.Pivots {
			t.Fatalf("pivots: fast %d, oracle %d\n%s", fast.Pivots, oracle.Pivots, m)
		}
		objs := []*Lin{obj}
		for range 3 {
			o := NewLin()
			for i := range vars {
				o.AddInt(vars[i], int64(next()%15-5))
			}
			objs = append(objs, o)
		}
		checkPricedSequence(t, m, objs)
	})
}
