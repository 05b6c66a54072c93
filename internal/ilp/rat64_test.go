package ilp

import (
	"math"
	"math/big"
	"testing"
)

func TestGcd64Positive(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6},
		{-12, 18, 6},
		{0, 0, 1},
		{0, 7, 7},
		{math.MinInt64, 6, 2},
		{math.MinInt64, 0, 1}, // gcd 2^63 unrepresentable: clamps to 1
		{math.MinInt64, math.MinInt64, 1},
		{1, math.MinInt64, 1},
	}
	for _, c := range cases {
		if got := gcd64(c.a, c.b); got != c.want {
			t.Errorf("gcd64(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := gcd64(c.a, c.b); got <= 0 {
			t.Errorf("gcd64(%d, %d) = %d, not positive", c.a, c.b, got)
		}
	}
}

// TestRat64MinInt64IsOverflow: operations whose exact result has a
// MinInt64 numerator (or that receive MinInt64 components) must report
// overflow — two's-complement negation of MinInt64 is a no-op, so
// letting it through would break the d > 0 / reduced invariants and
// corrupt sign and floor, silently skipping the big.Rat fallback.
func TestRat64MinInt64IsOverflow(t *testing.T) {
	// Exact sum is MinInt64/6 — representable range-wise, but rejected.
	a := rat64{-3074457345618258602, 2}
	b := rat64{-1, 3}
	if got, ok := a.add(b); ok {
		if got.d <= 0 || got.sign() >= 0 {
			t.Fatalf("add produced corrupt rat64 %+v", got)
		}
	}
	if _, ok := mkRat64(math.MinInt64, 6); ok {
		t.Error("mkRat64 accepted a MinInt64 numerator")
	}
	if _, ok := mkRat64(1, math.MinInt64); ok {
		t.Error("mkRat64 accepted a MinInt64 denominator")
	}
}

// TestSolveNearMinInt64FallsBack: a model that drives the fast path
// into the MinInt64 corner must return the exact oracle answer with
// FellBack set, not a corrupted fast result.
func TestSolveNearMinInt64FallsBack(t *testing.T) {
	m := NewModel()
	x := m.AddIntVar("x")
	m.SetBounds(x, big.NewRat(0, 1), big.NewRat(3, 1))
	// Objective coefficient -(2^62+...) — sums toward MinInt64.
	m.SetObjective(NewLin().AddInt(x, -3074457345618258602))
	m.AddConstraintInt("lo", NewLin().AddInt(x, 1), GE, 3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := m.SolveOracle()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != oracle.Status || sol.Value.Cmp(oracle.Value) != 0 {
		t.Fatalf("solve %v %s, oracle %v %s", sol.Status, sol.Value.RatString(),
			oracle.Status, oracle.Value.RatString())
	}
}

// FuzzRat64Arith checks add, sub, mul and cmp against big.Rat on
// fuzzer-chosen operands. mode bit 0 (bit 1) forces a's (b's)
// denominator to 1, so the integer fast path is fuzzed as hard as the
// general one. When an operation reports ok, its result must be the
// exact value, reduced, with d > 0 and a numerator above MinInt64 (whose
// negation is a no-op). When it reports overflow, the exact
// value must not fit, must have a MinInt64 numerator, or, for add and
// sub of fractions, one of the cross-reduced intermediates
// n1·(d2/g), n2·(d1/g), their sum or d1·(d2/g) must leave int64.
func FuzzRat64Arith(f *testing.F) {
	edges := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		1 << 31, 1<<31 - 1, -(1 << 31), 1 << 32, 1<<32 + 1, -(1 << 32)}
	for i, a := range edges {
		for j, b := range edges {
			f.Add(a, int64(1), b, int64(1), uint8(3))
			f.Add(a, int64(3), b, edges[(i+j)%len(edges)], uint8(0))
			f.Add(a, int64(1<<31), b, int64(7), uint8(2))
		}
	}
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64, mode uint8) {
		if mode&1 != 0 {
			ad = 1
		}
		if mode&2 != 0 {
			bd = 1
		}
		a, okA := mkRat64(an, ad)
		b, okB := mkRat64(bn, bd)
		if !okA || !okB {
			return
		}
		ra, rb := a.Rat(), b.Rat()
		if got, want := a.cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		ops := []struct {
			name  string
			op    func(x, y rat64) (rat64, bool)
			exact func(z, x, y *big.Rat) *big.Rat
			cross bool
		}{
			{"add", rat64.add, (*big.Rat).Add, true},
			{"sub", rat64.sub, (*big.Rat).Sub, true},
			{"mul", rat64.mul, (*big.Rat).Mul, false},
		}
		for _, o := range ops {
			want := o.exact(new(big.Rat), ra, rb)
			got, ok := o.op(a, b)
			if ok {
				if got.d <= 0 || got.n == math.MinInt64 || gcd64(got.n, got.d) != 1 {
					t.Fatalf("%s(%v, %v) = %v: not reduced with d > 0 and n > MinInt64", o.name, a, b, got)
				}
				if got.Rat().Cmp(want) != 0 {
					t.Fatalf("%s(%v, %v) = %v, want %s", o.name, a, b, got, want.RatString())
				}
				continue
			}
			fits := want.Num().IsInt64() && want.Denom().IsInt64() && want.Num().Int64() != math.MinInt64
			if fits && !(o.cross && crossOverflows(a, b, o.name == "sub")) {
				t.Fatalf("%s(%v, %v) reported overflow, exact %s fits", o.name, a, b, want.RatString())
			}
		}
	})
}

// crossOverflows reports whether an intermediate of the cross-reduced
// sum a ± b leaves int64.
func crossOverflows(a, b rat64, negate bool) bool {
	bn := big.NewInt(b.n)
	if negate {
		bn.Neg(bn)
	}
	g := big.NewInt(gcd64(a.d, b.d))
	ad, bd := big.NewInt(a.d), big.NewInt(b.d)
	x := new(big.Int).Mul(big.NewInt(a.n), new(big.Int).Quo(bd, g))
	y := new(big.Int).Mul(bn, new(big.Int).Quo(ad, g))
	s := new(big.Int).Add(x, y)
	d := new(big.Int).Mul(ad, new(big.Int).Quo(bd, g))
	// mulOvf accepts a product of exactly MinInt64; mkRat64 rejects a
	// MinInt64 sum before reducing it.
	return !x.IsInt64() || !y.IsInt64() || !d.IsInt64() || !s.IsInt64() || s.Int64() == math.MinInt64
}
