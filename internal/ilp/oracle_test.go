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

// TestFastMatchesOracleLoopNests pins the fast path against the oracle
// on loop-nest IPET models of 300 rows and more, where pivots rewrite
// rows of 50 entries and more. The diamond chains above never build
// such rows, so only this suite reaches the bulk-copy row update on
// long rows.
func TestFastMatchesOracleLoopNests(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		m := loopNestIPETModel(rng, 5+rng.Intn(2), 2+rng.Intn(2), 2, 6+rng.Intn(3))
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

// TestWarmReuseBitIdentical: a SolveWithReuse hit must return exactly
// the cold solution (phase 1 is objective-independent), with fewer
// pivots charged.
func TestWarmReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m := randomIPETModel(rng)
	var reuse Reuse
	key := []int64{7}
	cold, err := m.SolveWithReuse(&reuse, key)
	if err != nil {
		t.Fatal(err)
	}
	if h, ms := reuse.Stats(); h != 0 || ms != 1 {
		t.Fatalf("after cold solve: hits=%d misses=%d", h, ms)
	}
	// New objective, same rows: warm path must hit and agree with a
	// fresh cold solve of the same model.
	obj := NewLin()
	for v := 0; v < m.NumVars(); v++ {
		obj.AddInt(Var(v), int64(v%5+1))
	}
	m.SetObjective(obj)
	warm, err := m.SolveWithReuse(&reuse, key)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := reuse.Stats(); h != 1 {
		t.Fatalf("warm solve missed the snapshot (hits=%d)", h)
	}
	coldRef, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	assertSolutionsEqual(t, warm, coldRef, m)
	if warm.Pivots > coldRef.Pivots {
		t.Errorf("warm solve pivoted more than cold: %d > %d", warm.Pivots, coldRef.Pivots)
	}
	if cold.Pivots <= warm.Pivots {
		t.Errorf("warm solve did not skip phase-1 pivots: cold %d, warm %d", cold.Pivots, warm.Pivots)
	}
	// A different key must not hit.
	if _, err := m.SolveWithReuse(&reuse, []int64{8}); err != nil {
		t.Fatal(err)
	}
	if h, _ := reuse.Stats(); h != 1 {
		t.Fatalf("mismatched key hit the snapshot (hits=%d)", h)
	}
}

// FuzzILPOracle decodes arbitrary bytes into a small bounded ILP and
// cross-checks the fast path against the oracle.
func FuzzILPOracle(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 200, 1, 2, 0, 5, 1, 1})
	f.Add([]byte{3, 2, 0, 0, 0, 9, 9, 9, 1, 2, 3, 4, 5, 6})
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
	})
}
