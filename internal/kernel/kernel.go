// Package kernel provides hand-specialized batch summation kernels: the
// devirtualized inner loops behind every hot fold in the repository.
//
// The generic execution paths (reduce.Fold, parallel chunk folds, the
// tree executors' serial leaf runs) express one element step as a Leaf
// plus a Merge through a reduce.Monoid interface value — two dynamic
// calls per element that the compiler can neither inline nor
// software-pipeline. The kernels in this package collapse
// that step into straight-line float64 code over a []float64.
//
// The reference-order kernels (ST, Kahan, Neumaier, CP) fold the
// slice in exactly the left-to-right order reduce.Fold defines —
// Leaf(xs[0]) merged with Leaf of every later element — and are proven
// bit-identical to that reference by exhaustive equivalence tests. They
// are pure speedups: swapping them in changes no bits anywhere.
//
// Go's float64 arithmetic follows IEEE-754 exactly and is never fused or
// reassociated by the compiler, so every kernel's bit pattern is a
// platform-independent function of its input.
package kernel

import (
	"math"

	"repro/internal/dd"
	"repro/internal/fpu"
)

// ST folds xs left-to-right with plain float64 addition — bit-identical
// to reduce.Fold over sum.STMonoid and to sum.Standard. Empty input
// returns 0 (the fold identity).
func ST(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Kahan folds xs left-to-right with Kahan's compensated recurrence and
// returns the (sum, pending correction) pair — bit-identical to folding
// sum.KahanMonoid in reference order, starting like it from (xs[0], 0):
// an all -0 slice keeps its sign and a lone infinity its zero correction.
// Empty input returns the zero state.
func Kahan(xs []float64) (s, c float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s = xs[0]
	for _, x := range xs[1:] {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s, c
}

// Neumaier folds xs left-to-right with Neumaier's compensated recurrence
// and returns the (sum, correction) pair — bit-identical to folding
// sum.NeumaierMonoid in reference order, from (xs[0], 0) like Kahan. The
// branch-free TwoSum residual equals the classic branched one exactly
// (both are the representable error of the same addition) but never
// mispredicts on mixed signs. Empty input returns the zero state.
func Neumaier(xs []float64) (s, c float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s = xs[0]
	for _, x := range xs[1:] {
		var e float64
		s, e = fpu.TwoSum(s, x)
		c += e
	}
	return s, c
}

// CP folds xs left-to-right in composite precision — bit-identical to
// folding sum.CPMonoid in reference order: the running state is a
// double-double pair and every step is the full accurate dd.Add (not
// the cheaper AddFloat64, whose last bit can differ). Empty input
// returns the zero state.
//
// The step is dd.Add((hi, lo), (x, 0)) written out. Its TwoSum(lo, 0)
// is exactly (lo+0, lo-lo). When the first FastTwoSum is exact
// (|s1| >= |e1|) and its sum is finite, the second FastTwoSum returns
// its inputs unchanged (e1, and so e, is never -0), so the common case
// skips it and shortens the loop-carried dependency chain from eleven
// additions to seven; every other case runs the full step.
func CP(xs []float64) dd.DD {
	if len(xs) == 0 {
		return dd.Zero
	}
	hi, lo := xs[0], 0.0
	for _, x := range xs[1:] {
		s1, e1 := fpu.TwoSum(hi, x)
		e1 += lo + 0
		s := s1 + e1
		e := e1 - (s - s1)
		if math.Abs(s1) >= math.Abs(e1) && math.Abs(s) <= math.MaxFloat64 {
			hi, lo = s, e
			continue
		}
		e += lo - lo
		hi = s + e
		lo = e - (hi - s)
	}
	return dd.DD{Hi: hi, Lo: lo}
}
