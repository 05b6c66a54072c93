package ilp

import (
	"math"
	"math/big"
	"math/bits"
)

// rat64 is an exact rational with int64 numerator and denominator. The
// denominator is always positive and gcd(|n|, d) == 1. It is the scalar
// of the fast solver path: IPET models are all-integer, so coefficients,
// bounds and tableau entries fit comfortably in machine words; every
// operation is overflow-checked and the solver falls back to the exact
// big.Rat oracle when a computation would leave the representable range.
type rat64 struct {
	n int64
	d int64
}

var (
	r64Zero = rat64{0, 1}
	r64One  = rat64{1, 1}
)

// gcd64 returns the positive gcd of |a| and |b|; gcd64(0, 0) == 1 so it
// can be used unconditionally as a divisor. Magnitudes are taken in
// uint64 so MinInt64 (whose int64 negation is a no-op) cannot produce a
// negative result; the one unrepresentable case — a gcd of exactly 2^63,
// possible only when both inputs are MinInt64 or zero — clamps to 1,
// which merely skips a reduction and never changes a value.
func gcd64(a, b int64) int64 {
	ua, ub := abs64(a), abs64(b)
	for ub != 0 {
		ua, ub = ub, ua%ub
	}
	if ua == 0 || ua > math.MaxInt64 {
		return 1
	}
	return int64(ua)
}

// addOvf returns a+b, reporting overflow.
func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOvf returns a*b, reporting overflow. A MinInt64 operand is always
// rejected; a product of exactly MinInt64 is accepted. The 128-bit
// product decides overflow without a division.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if hi != 0 || lo > 1<<63 || (lo == 1<<63 && (a < 0) == (b < 0)) {
		return 0, false
	}
	return a * b, true
}

// mkRat64 builds a reduced rat64 from n/d. MinInt64 components are
// rejected as overflow: their negation is a no-op in two's complement,
// which would silently break the d > 0 invariant (and sign/floor with
// it) instead of triggering the big.Rat fallback.
func mkRat64(n, d int64) (rat64, bool) {
	if d == 0 || n == math.MinInt64 || d == math.MinInt64 {
		return rat64{}, false
	}
	if d < 0 {
		n, d = -n, -d
	}
	if n == 0 {
		return r64Zero, true
	}
	if d == 1 || n == 1 || n == -1 {
		return rat64{n, d}, true // already reduced
	}
	g := gcd64(n, d)
	return rat64{n / g, d / g}, true
}

func (r rat64) sign() int {
	switch {
	case r.n > 0:
		return 1
	case r.n < 0:
		return -1
	default:
		return 0
	}
}

func (r rat64) isInt() bool { return r.d == 1 }

// floor returns ⌊r⌋.
func (r rat64) floor() int64 {
	q := r.n / r.d
	if r.n < 0 && r.n%r.d != 0 {
		q--
	}
	return q
}

// cmpProd compares a*b with c*d exactly in 128-bit arithmetic.
func cmpProd(a, b, c, d int64) int {
	sl := sign128(a) * sign128(b)
	sr := sign128(c) * sign128(d)
	if sl != sr {
		if sl < sr {
			return -1
		}
		return 1
	}
	lh, ll := bits.Mul64(abs64(a), abs64(b))
	rh, rl := bits.Mul64(abs64(c), abs64(d))
	cmp := 0
	if lh != rh {
		if lh < rh {
			cmp = -1
		} else {
			cmp = 1
		}
	} else if ll != rl {
		if ll < rl {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if sl < 0 {
		cmp = -cmp
	}
	return cmp
}

func sign128(a int64) int {
	switch {
	case a > 0:
		return 1
	case a < 0:
		return -1
	default:
		return 0
	}
}

func abs64(a int64) uint64 {
	if a < 0 {
		return uint64(-uint64(a))
	}
	return uint64(a)
}

// cmp compares r with o exactly (no overflow possible).
func (r rat64) cmp(o rat64) int {
	if r.d == o.d {
		switch {
		case r.n < o.n:
			return -1
		case r.n > o.n:
			return 1
		}
		return 0
	}
	return cmpProd(r.n, o.d, o.n, r.d)
}

// add returns r+o, reporting overflow.
func (r rat64) add(o rat64) (rat64, bool) {
	if r.d == 1 && o.d == 1 {
		// Integer fast path, with the general path's verdicts: mulOvf
		// rejects MinInt64 operands and mkRat64 a MinInt64 result.
		if r.n == math.MinInt64 || o.n == math.MinInt64 {
			return rat64{}, false
		}
		n, ok := addOvf(r.n, o.n)
		if !ok || n == math.MinInt64 {
			return rat64{}, false
		}
		return rat64{n, 1}, true
	}
	// n1/d1 + n2/d2 = (n1*(d2/g) + n2*(d1/g)) / (d1*(d2/g)) with g=gcd(d1,d2).
	g := gcd64(r.d, o.d)
	od := o.d / g
	a, ok1 := mulOvf(r.n, od)
	b, ok2 := mulOvf(o.n, r.d/g)
	if !ok1 || !ok2 {
		return rat64{}, false
	}
	n, ok := addOvf(a, b)
	if !ok {
		return rat64{}, false
	}
	d, ok := mulOvf(r.d, od)
	if !ok {
		return rat64{}, false
	}
	return mkRat64(n, d)
}

// sub returns r-o, reporting overflow.
func (r rat64) sub(o rat64) (rat64, bool) {
	if o.n == math.MinInt64 {
		return rat64{}, false
	}
	return r.add(rat64{-o.n, o.d})
}

// mul returns r*o, reporting overflow. Cross-reduction keeps the
// intermediate products as small as possible.
func (r rat64) mul(o rat64) (rat64, bool) {
	if r.d == 1 && o.d == 1 {
		// Integer fast path: nothing to reduce, so no gcd and no division.
		n, ok := mulOvf(r.n, o.n)
		if !ok || n == math.MinInt64 {
			return rat64{}, false
		}
		return rat64{n, 1}, true
	}
	g1 := gcd64(r.n, o.d)
	g2 := gcd64(o.n, r.d)
	n, ok1 := mulOvf(r.n/g1, o.n/g2)
	d, ok2 := mulOvf(r.d/g2, o.d/g1)
	if !ok1 || !ok2 {
		return rat64{}, false
	}
	return mkRat64(n, d)
}

// Rat returns the value as a big.Rat (always exact).
func (r rat64) Rat() *big.Rat { return big.NewRat(r.n, r.d) }

// rat64FromBig converts a big.Rat, reporting whether it fits.
func rat64FromBig(x *big.Rat) (rat64, bool) {
	if !x.Num().IsInt64() || !x.Denom().IsInt64() {
		return rat64{}, false
	}
	return mkRat64(x.Num().Int64(), x.Denom().Int64())
}
