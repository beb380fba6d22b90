package sum

import (
	"repro/internal/dd"
	"repro/internal/fpu"
	"repro/internal/superacc"
)

// Dot products — the other reduction the paper's framing covers (its
// PR operator comes from ReproBLAS, whose headline kernel is the dot
// product). Each variant mirrors the corresponding summation algorithm;
// the reproducible variants split every product exactly with TwoProd
// (a*b = p + e with both parts representable) and feed the parts to the
// order-insensitive accumulator, so nondeterministic reduction of the
// partial dot products cannot change the result.

// DotStandard is the naive dot product (ST).
func DotStandard(a, b []float64) float64 {
	checkDotLen(a, b)
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// DotKahan compensates the product accumulation Kahan-style (K).
func DotKahan(a, b []float64) float64 {
	checkDotLen(a, b)
	var s, c float64
	for i, x := range a {
		y := x*b[i] - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// DotComposite accumulates exact products in composite precision (CP):
// each product is split with TwoProd and both parts enter the
// double-double accumulator.
func DotComposite(a, b []float64) float64 {
	checkDotLen(a, b)
	acc := dd.Zero
	for i, x := range a {
		p, e := fpu.TwoProd(x, b[i])
		acc = acc.AddFloat64(p)
		acc = acc.AddFloat64(e)
	}
	return acc.Float64()
}

// DotPrerounded computes a bitwise-reproducible dot product (PR): exact
// product splits deposited into the binned accumulator.
func DotPrerounded(a, b []float64) float64 {
	return DotPreroundedWith(DefaultPRConfig(), a, b)
}

// DotPreroundedWith is DotPrerounded with an explicit configuration.
// Each element contributes two deposits (product head and tail), so the
// effective capacity is half the configuration's.
func DotPreroundedWith(cfg PRConfig, a, b []float64) float64 {
	checkDotLen(a, b)
	acc := NewPreroundedAcc(cfg)
	for i, x := range a {
		p, e := fpu.TwoProd(x, b[i])
		acc.Add(p)
		acc.Add(e)
	}
	return acc.Sum()
}

// DotBinned computes a bitwise-reproducible dot product on the binned
// rung (BN): exact product splits deposited into the binned
// accumulator. Each element contributes two deposits (product head and
// tail); capacity is unbounded thanks to the scheduled renormalization.
func DotBinned(a, b []float64) float64 {
	checkDotLen(a, b)
	var acc BinnedAcc
	for i, x := range a {
		p, e := fpu.TwoProd(x, b[i])
		acc.Add(p)
		acc.Add(e)
	}
	return acc.Sum()
}

// DotExact returns the exact, correctly rounded dot product via the
// superaccumulator (the validation oracle).
func DotExact(a, b []float64) float64 {
	checkDotLen(a, b)
	var acc superacc.Acc
	for i, x := range a {
		p, e := fpu.TwoProd(x, b[i])
		acc.Add(p)
		acc.Add(e)
	}
	return acc.Float64()
}

// Dot computes the dot product with the named algorithm: the variant
// of its registry row (N shares Kahan's, PW shares ST's).
func Dot(alg Algorithm, a, b []float64) float64 { return alg.row().dot(a, b) }

func checkDotLen(a, b []float64) {
	if len(a) != len(b) {
		panic("sum: dot product length mismatch")
	}
}
