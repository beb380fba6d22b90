// Package gen constructs the operand sets the paper's experiments reduce:
// sets with prescribed size n, sum condition number k, and dynamic range
// dr; exactly-cancelling ("sum-to-zero") series; uniform ranges; the
// literal Table I sample sets; and an N-body-style force workload for
// the motivating example.
//
// Dynamic range here is measured in binary exponent bits (the exponent
// of the float64 representation); the paper's Table I quotes decimal
// exponents — one decimal digit is ~3.32 bits. Condition-number targets
// are hit approximately (within a small factor, verified by tests); the
// grid experiments always report the measured k of each generated cell.
package gen

import (
	"fmt"
	"math"

	"repro/internal/fpu"
	"repro/internal/superacc"
)

// Spec describes an operand set to generate.
type Spec struct {
	// N is the number of values (>= 2).
	N int
	// Cond is the target sum condition number: 1 for same-sign data,
	// +Inf for an exactly-zero sum, anything in between for
	// ill-conditioned data.
	Cond float64
	// DynRange is the binary dynamic range: the exact difference between
	// the largest and smallest binary exponent in the set.
	DynRange int
	// BaseExp is the binary exponent of the smallest-magnitude values
	// (default 0 — values near 1).
	BaseExp int
	// Seed drives generation; equal specs generate equal sets.
	Seed uint64
}

// String summarizes the spec for reports.
func (s Spec) String() string {
	return fmt.Sprintf("n=%d k=%g dr=%d", s.N, s.Cond, s.DynRange)
}

// Validate reports why Generate cannot build the spec: N < 2, Cond < 1
// or NaN, negative DynRange, or exponents outside the float64 range.
func (s Spec) Validate() error {
	switch {
	case s.N < 2:
		return fmt.Errorf("gen: n = %d, need at least 2 values", s.N)
	case s.Cond < 1 || math.IsNaN(s.Cond):
		return fmt.Errorf("gen: k = %g, need a condition number >= 1 (or +Inf)", s.Cond)
	case s.DynRange < 0:
		return fmt.Errorf("gen: dr = %d, need a dynamic range >= 0", s.DynRange)
	case s.BaseExp < -1000 || s.BaseExp+s.DynRange > 1000:
		return fmt.Errorf("gen: exponents %d..%d outside [-1000, 1000]", s.BaseExp, s.BaseExp+s.DynRange)
	}
	return nil
}

// Generate builds the operand set. It panics on a spec Validate rejects.
func (s Spec) Generate() []float64 {
	if err := s.Validate(); err != nil {
		panic(err.Error())
	}
	r := fpu.NewRNG(s.Seed ^ 0xabcdef12345)
	switch {
	case math.IsInf(s.Cond, 1):
		return s.sumZero(r)
	case s.Cond == 1:
		return s.sameSign(r)
	default:
		return s.illConditioned(r)
	}
}

// mantissa returns a random value in [1, 2).
func mantissa(r *fpu.RNG) float64 { return 1 + r.Float64() }

// value draws a positive value with a random exponent in the spec range.
func (s Spec) value(r *fpu.RNG) float64 {
	return math.Ldexp(mantissa(r), s.BaseExp+r.Intn(s.DynRange+1))
}

// forceEndpoints overwrites the first two slots with values pinned to
// the extreme exponents so the generated dynamic range is exact. The
// callers re-establish their sum invariants afterwards where needed.
func (s Spec) forceEndpoints(xs []float64, r *fpu.RNG) {
	xs[0] = math.Ldexp(mantissa(r), s.BaseExp)
	xs[1] = math.Ldexp(mantissa(r), s.BaseExp+s.DynRange)
}

// sameSign generates k = 1 data: all positive values across the range.
func (s Spec) sameSign(r *fpu.RNG) []float64 {
	xs := make([]float64, s.N)
	for i := range xs {
		xs[i] = s.value(r)
	}
	s.forceEndpoints(xs, r)
	r.Shuffle(xs)
	return xs
}

// sumZero generates k = +Inf data: exact ± pairs spanning the range.
// N odd gets one extra zero value.
func (s Spec) sumZero(r *fpu.RNG) []float64 {
	xs := make([]float64, 0, s.N)
	// Pin the endpoints with one pair at each extreme exponent.
	lo := math.Ldexp(mantissa(r), s.BaseExp)
	hi := math.Ldexp(mantissa(r), s.BaseExp+s.DynRange)
	xs = append(xs, lo, -lo)
	if s.N >= 4 {
		xs = append(xs, hi, -hi)
	}
	for len(xs)+2 <= s.N {
		v := s.value(r)
		xs = append(xs, v, -v)
	}
	if len(xs) < s.N {
		xs = append(xs, 0)
	}
	r.Shuffle(xs)
	return xs
}

// illConditioned generates data with a finite condition-number target
// k > 1, deterministically (no sampling noise in the achieved k):
//
//   - moderate k (<= N/4): the set is p positive "singles" plus exact
//     ± pairs. The pairs cancel exactly, so the exact sum is the
//     singles' mass and k ≈ sumAbs/singlesMass = N/p.
//   - large k (> N/4): the set is exact ± pairs plus q near-cancelling
//     pairs (a, -(a-δ)) whose gaps δ are exact multiples of ulp(a); the
//     exact sum is q·δ, which can be made as small as one ulp at the top
//     of the range, reaching k up to ~2^52·N.
//
// Both constructions keep every element's exponent inside
// [BaseExp, BaseExp+DynRange] and pin both endpoints, so the generated
// dynamic range is exact.
func (s Spec) illConditioned(r *fpu.RNG) []float64 {
	if s.Cond <= float64(s.N)/4 && s.N >= 8 {
		return s.illSingles(r)
	}
	return s.illNearPairs(r)
}

// expectedAbs is the mean |value| drawn by Spec.value: mantissa mean 1.5
// times the average of 2^e over the exponent range.
func (s Spec) expectedAbs() float64 {
	span := math.Ldexp(1, s.BaseExp+s.DynRange+1) - math.Ldexp(1, s.BaseExp)
	return 1.5 * span / float64(s.DynRange+1)
}

// illSingles implements the moderate-k construction. The pair mass is
// built and measured first; the p singles then all take the exact value
// v = sPairs/(p*(k-1)), which makes the achieved condition number
// (sPairs + p*v)/(p*v) = k up to one float64 rounding.
func (s Spec) illSingles(r *fpu.RNG) []float64 {
	k := s.Cond
	vT := math.Ldexp(1.5, s.BaseExp+s.DynRange/2) // mid-range target for v
	eBar := s.expectedAbs()
	p := int(math.Round(float64(s.N) * eBar / ((k-1)*vT + eBar)))
	if p < 1 {
		p = 1
	}
	if p > s.N-6 {
		p = s.N - 6
	}
	if (s.N-p)%2 == 1 {
		p++ // keep the pair block even
	}
	xs := make([]float64, 0, s.N)
	// Pin both endpoints with exact pairs.
	lo := math.Ldexp(mantissa(r), s.BaseExp)
	hi := math.Ldexp(mantissa(r), s.BaseExp+s.DynRange)
	xs = append(xs, lo, -lo, hi, -hi)
	for len(xs)+p+2 <= s.N {
		v := s.value(r)
		xs = append(xs, v, -v)
	}
	var abs superacc.Acc
	for _, x := range xs {
		abs.Add(math.Abs(x))
	}
	sPairs := abs.Float64()
	v := sPairs / (float64(p) * (k - 1))
	// Keep v's exponent inside the range; clamping trades k accuracy
	// for an exact dynamic range.
	if minV := math.Ldexp(1, s.BaseExp); v < minV {
		v = minV
	}
	if maxV := math.Ldexp(1.999, s.BaseExp+s.DynRange); v > maxV {
		v = maxV
	}
	for i := 0; i < p; i++ {
		xs = append(xs, v)
	}
	r.Shuffle(xs)
	return xs
}

// illNearPairs implements the large-k construction.
func (s Spec) illNearPairs(r *fpu.RNG) []float64 {
	topExp := s.BaseExp + s.DynRange
	a := math.Ldexp(1.5, topExp)
	ulpA := math.Ldexp(1, topExp-52)
	// Build the cancelling pair mass first so its absolute sum is known
	// exactly when the gaps are sized.
	pairs := make([]float64, 0, s.N)
	lo := math.Ldexp(mantissa(r), s.BaseExp)
	hi := math.Ldexp(mantissa(r), topExp)
	pairs = append(pairs, lo, -lo)
	if s.N >= 8 {
		pairs = append(pairs, hi, -hi)
	}
	// Reserve room: q near-pairs (q decided below, at most ~20) plus an
	// optional padding zero for odd N.
	reserve := 44
	if reserve > s.N-len(pairs) {
		reserve = s.N - len(pairs)
	}
	for len(pairs)+2 <= s.N-reserve {
		v := s.value(r)
		pairs = append(pairs, v, -v)
	}
	var abs superacc.Acc
	for _, x := range pairs {
		abs.Add(math.Abs(x))
	}
	sPairs := abs.Float64()
	// Size the gap: solve delta = (sPairs + 2*q*a)/k, iterating once to
	// pick q so each per-pair gap fits well inside the top bin.
	maxGap := math.Ldexp(0.45, topExp)
	delta := (sPairs + 2*a) / s.Cond
	q := int(math.Ceil(delta / maxGap))
	if q < 1 {
		q = 1
	}
	if q > (s.N-len(pairs))/2 {
		q = (s.N - len(pairs)) / 2
	}
	delta = (sPairs + 2*float64(q)*a) / s.Cond
	gap := delta / float64(q)
	// Round the gap to an exact multiple of ulp(a) so each near-pair
	// cancels to exactly `gap`.
	gap = math.Round(gap/ulpA) * ulpA
	if gap < ulpA {
		gap = ulpA
	}
	if gap > maxGap {
		gap = maxGap // best effort; achieved k lands below target
	}
	xs := append([]float64(nil), pairs...)
	for i := 0; i < q; i++ {
		xs = append(xs, a, -(a - gap))
	}
	// Fill any remaining slots with exact pairs, then pad odd N with 0.
	for len(xs)+2 <= s.N {
		v := s.value(r)
		xs = append(xs, v, -v)
	}
	if len(xs) < s.N {
		xs = append(xs, 0)
	}
	r.Shuffle(xs)
	return xs
}

// Uniform returns n values uniformly distributed in (lo, hi) — the
// workload of the paper's Figs 2 and 3.
func Uniform(n int, lo, hi float64, seed uint64) []float64 {
	r := fpu.NewRNG(seed ^ 0x5eed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + r.Float64()*(hi-lo)
	}
	return xs
}

// SumZeroSeries returns an n-value series whose exact sum is zero with
// binary dynamic range dr — the construction behind Figs 4–7 ("a series
// that is known to sum to zero under exact arithmetic", dr = 32 sets).
func SumZeroSeries(n, dr int, seed uint64) []float64 {
	return Spec{N: n, Cond: math.Inf(1), DynRange: dr, Seed: seed}.Generate()
}

// TableIRow is one sample set from the paper's Table I with its stated
// decimal dynamic range and condition number.
type TableIRow struct {
	Values []float64
	DR     int     // decimal dynamic range as printed in the table
	K      float64 // condition number as printed (math.Inf(1) for ∞)
}

// TableI returns the eleven literal sample sets of the paper's Table I.
func TableI() []TableIRow {
	inf := math.Inf(1)
	return []TableIRow{
		{[]float64{1.23e32, 1.35e32, 2.37e32, 3.54e32}, 0, 1},
		{[]float64{1.23e-32, 1.35e-32, 2.37e-32, 3.54e-32}, 0, 1},
		{[]float64{-1.23e16, -1.35e16, -2.37e16, -3.54e16}, 0, 1},
		{[]float64{2.37e16, 3.41e8, 4.32e8, 8.14e16}, 8, 1},
		{[]float64{3.14e32, 1.59e16, 2.65e18, 3.58e24}, 16, 1},
		{[]float64{2.505e2, 2.5e2, -2.495e2, -2.5e2}, 0, 1000},
		{[]float64{5.00e2, 4.99999e-1, 1.0e-6, -4.995e2}, 8, 1000},
		{[]float64{5.00e2, 4.9999e-1, 1.0e-14, -4.995e2}, 16, 1000},
		{[]float64{3.14e8, 1.59e8, -3.14e8, -1.59e8}, 0, inf},
		{[]float64{3.14e4, 1.59e-4, -3.14e4, -1.59e-4}, 8, inf},
		{[]float64{3.14e8, 1.59e-8, -3.14e8, -1.59e-8}, 16, inf},
	}
}

// NBodyForces emulates the paper's motivating ill-conditioned workload:
// the pairwise force components on a particle in an N-body system whose
// net force is near zero (bodies distributed nearly isotropically).
// Returns n force contributions whose sum is small relative to their
// magnitudes — both k and dr are "frequently very large" (Section V-A).
func NBodyForces(n int, seed uint64) []float64 {
	r := fpu.NewRNG(seed ^ 0xb0d1)
	xs := make([]float64, n)
	for i := range xs {
		// 1/r^2 magnitudes with distances over ~5 decades, signed by
		// direction: heavy-tailed, mixed-sign, nearly cancelling.
		dist := math.Ldexp(mantissa(r), r.Intn(17)) // r in [1, 2^17)
		f := 1.0 / (dist * dist)
		if r.Bool() {
			f = -f
		}
		xs[i] = f
	}
	return xs
}
