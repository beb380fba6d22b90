// Package selector implements the paper's proposed contribution: an
// intelligent runtime that profiles the mathematical properties of the
// floating-point values to be reduced (n, condition number, dynamic
// range, sign uniformity) and selects the cheapest reduction algorithm
// that achieves an application-specified reproducibility target
// (Sections V-C/V-D and Fig 12).
//
// The policies are the analytic HeuristicPolicy derived from
// error-bound shapes, the bound-driven ProbabilisticPolicy, the
// CalibratedPolicy nearest-cell table backed by measured variability
// over a parameter-space sweep (the grid package), and Static. All are deterministic functions of the profile,
// so every rank of a distributed reduction reaches the same decision
// without extra coordination beyond sharing the profile.
//
// There is one serving route, Selector.SelectAndSum, and it is serial
// and speculative: FusedProfileSum, this package's one fused profile
// loop, computes the profile and the two cheapest candidate sums (ST
// and Neumaier) in one memory pass, so when the policy settles on
// either, the answer is already in hand and the data is never read
// twice (see fused.go); requests the analytic policies can only
// resolve to BN (tolerance 0, and tight tolerances under the heuristic
// at large enough n) skip the profile and run the BN fold alone. The
// call reports a Selection, which repro.Runtime.Sum returns as its
// Report. An optional quantized DecisionCache, a bounded map cleared
// when full, memoizes policy outcomes so steady-state traffic skips
// policy evaluation entirely (see cache.go).
package selector

import (
	"fmt"
	"math"

	"repro/internal/fpu"
)

// CSum is a compensated running sum: an unevaluated pair (S, C) whose
// value is S + C, maintained with Neumaier's recurrence (the correction
// of every addition is captured exactly via TwoSum and accumulated in
// C). The pair resolves cancellation far below the resolution of a
// plain float64 sum — the relative error of Float64() is O((n·u)²)
// times the absolute-value sum, which distinguishes condition numbers
// well beyond the 10^17 saturation point of the selection policies.
//
// CSum is the same state as sum.NState, and AddFloat64/Add are
// bit-compatible with the Neumaier fold and merge operators: a profile
// accumulated over a value set carries, for free, exactly the bits a
// Neumaier summation of that set would produce. The fused speculative
// engine (fused.go) is built on that identity.
type CSum struct{ S, C float64 }

// Float64 rounds the pair to the nearest float64 (the Neumaier
// finalization S + C).
func (a CSum) Float64() float64 { return a.S + a.C }

// IsNaN reports whether either component is NaN.
func (a CSum) IsNaN() bool { return math.IsNaN(a.S) || math.IsNaN(a.C) }

// Finite reports whether both components are finite (no intermediate
// overflow poisoned the pair; overflow is sticky under AddFloat64/Add).
func (a CSum) Finite() bool {
	return !math.IsNaN(a.S) && !math.IsInf(a.S, 0) &&
		!math.IsNaN(a.C) && !math.IsInf(a.C, 0)
}

// AddFloat64 folds one value into the pair. The residual is captured
// with the branch-free TwoSum, which equals Neumaier's branched
// residual bit-for-bit (both are the exact representable error of the
// same addition), so a chain of AddFloat64 calls is bitwise-identical
// to streaming sum.NeumaierAcc over the same values (and to the
// xs[0]-seeded kernel.Neumaier unless they start with -0, ±Inf or NaN).
func (a CSum) AddFloat64(x float64) CSum {
	s, e := fpu.TwoSum(a.S, x)
	return CSum{S: s, C: a.C + e}
}

// Add merges two pairs: an exact TwoSum of the partial sums, the
// corrections added plainly — exactly sum.NeumaierMonoid.Merge, so
// tree-merged profiles stay bit-compatible with the parallel engine's
// Neumaier reduction.
func (a CSum) Add(b CSum) CSum {
	s, e := fpu.TwoSum(a.S, b.S)
	return CSum{S: s, C: a.C + b.C + e}
}

// Profile summarizes the runtime-estimable properties of a value set.
// Profiles are mergeable: the profile of a union is the Merge of the
// parts' profiles.
type Profile struct {
	// N is the number of values (zeros included).
	N int64
	// Sum is the running sum as a compensated (Neumaier) pair —
	// accurate enough to detect near-total cancellation, and
	// bit-identical to what a Neumaier summation of the same values
	// would hold (the fused engine returns it directly when the policy
	// selects Neumaier).
	Sum CSum
	// SumAbs is the running sum of |x|. The terms never cancel, so S is
	// accumulated plainly (n·u relative accuracy is ample for condition
	// estimation); C is populated only by Merge's exact combination.
	SumAbs CSum
	// MaxExp and MinExp are the extreme binary exponents of the nonzero
	// values; valid only when HasNonzero.
	MaxExp, MinExp int
	HasNonzero     bool
	// Pos, Neg count strictly positive and negative values.
	Pos, Neg int64
	// NonFinite is the poison flag (mirroring superacc.Acc): a NaN or
	// ±Inf was profiled. Such values never enter Sum/SumAbs or the
	// exponent extremes — they would silently corrupt the compensated
	// arithmetic — and Merge propagates the flag, so a poisoned shard
	// poisons the global profile. Cond reports +Inf for poisoned
	// profiles.
	NonFinite bool
}

// degenerate reports a finite profile of at most one value or of zeros
// only: every algorithm and tree gives it the same result.
func (p Profile) degenerate() bool {
	return !p.NonFinite && (p.N <= 1 || p.SumAbs.Float64() == 0)
}

// Cond estimates the sum condition number k = sum|x| / |sum x| from the
// profile. All-zero or empty profiles return 1; profiles whose sum
// cancels below compensated-pair resolution, and profiles poisoned by
// non-finite values, return +Inf (the worst-conditioned answer — the
// selector cannot promise any finite variability for such data). When
// SumAbs overflowed (inputs near the top of the binary64 range) the
// estimate can be NaN; the policies treat NaN like +Inf.
func (p Profile) Cond() float64 {
	if p.NonFinite {
		return math.Inf(1)
	}
	abs := p.SumAbs.Float64()
	if abs == 0 {
		return 1
	}
	s := p.Sum.Float64()
	if s == 0 {
		return math.Inf(1)
	}
	return abs / math.Abs(s)
}

// DynRange returns the binary dynamic range of the profiled values.
func (p Profile) DynRange() int {
	if !p.HasNonzero {
		return 0
	}
	return p.MaxExp - p.MinExp
}

// SameSign reports whether every nonzero value shares one sign (k = 1).
func (p Profile) SameSign() bool { return p.Pos == 0 || p.Neg == 0 }

// String renders the profile's headline numbers.
func (p Profile) String() string {
	if p.NonFinite {
		return fmt.Sprintf("profile{n=%d non-finite}", p.N)
	}
	return fmt.Sprintf("profile{n=%d k=%.3g dr=%d sameSign=%v}",
		p.N, p.Cond(), p.DynRange(), p.SameSign())
}

// Merge combines two profiles; the result describes the union of the
// two value sets.
//
// Merging with an empty profile (zero observations: N == 0 and no
// poison flag — every constructor counts each observed value in N) is
// an exact identity, returned without touching the compensated pairs:
// the general path's TwoSum against a zero pair is value-preserving
// but not bit-preserving (IEEE addition turns a -0 partial into +0),
// and the identity must keep the Σx pair bit-correct so fused
// speculative Neumaier results stay independent of how many empty
// shards a reduction tree happens to contain.
func (p Profile) Merge(q Profile) Profile {
	if q.N == 0 && !q.NonFinite {
		return p
	}
	if p.N == 0 && !p.NonFinite {
		return q
	}
	out := Profile{
		N:         p.N + q.N,
		Sum:       p.Sum.Add(q.Sum),
		SumAbs:    p.SumAbs.Add(q.SumAbs),
		Pos:       p.Pos + q.Pos,
		Neg:       p.Neg + q.Neg,
		NonFinite: p.NonFinite || q.NonFinite,
	}
	switch {
	case p.HasNonzero && q.HasNonzero:
		out.HasNonzero = true
		out.MaxExp = max(p.MaxExp, q.MaxExp)
		out.MinExp = min(p.MinExp, q.MinExp)
	case p.HasNonzero:
		out.HasNonzero, out.MaxExp, out.MinExp = true, p.MaxExp, p.MinExp
	case q.HasNonzero:
		out.HasNonzero, out.MaxExp, out.MinExp = true, q.MaxExp, q.MinExp
	}
	return out
}

// Add folds one value into the profile. Non-finite values count toward N
// and set the NonFinite poison flag instead of entering the running
// sums, which would silently turn Cond into garbage.
func (p Profile) Add(x float64) Profile {
	p.observe(x)
	return p
}

// observe is the in-place sampling step shared by Add and the ProfileOf
// batch loop; keeping it pointer-receiver lets the hot profiling pass
// skip the two ~90-byte Profile copies per element that the value-
// semantics Add pays. The fused pass (FusedProfileSum) replicates
// this step exactly — the equivalence is pinned by tests.
func (p *Profile) observe(x float64) {
	p.N++
	if x == 0 {
		return
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		p.NonFinite = true
		return
	}
	p.Sum = p.Sum.AddFloat64(x)
	p.SumAbs.S += math.Abs(x)
	e := fpu.FiniteExponent(x)
	if !p.HasNonzero {
		p.HasNonzero = true
		p.MaxExp, p.MinExp = e, e
	} else {
		if e > p.MaxExp {
			p.MaxExp = e
		}
		if e < p.MinExp {
			p.MinExp = e
		}
	}
	if x > 0 {
		p.Pos++
	} else {
		p.Neg++
	}
}

// ProfileOf profiles a slice in one streaming pass. The loop mutates one
// local profile in place (see observe), so it is bit-identical to — and
// markedly faster than — folding Profile.Add over the slice.
func ProfileOf(xs []float64) Profile {
	var p Profile
	for _, x := range xs {
		p.observe(x)
	}
	return p
}
