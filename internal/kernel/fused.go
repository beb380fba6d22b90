package kernel

import (
	"math"

	"repro/internal/fpu"
)

// Fused profile+sum kernel: one memory pass that computes everything the
// runtime selector needs to pick an algorithm AND the two cheapest
// candidate answers.
//
// The legacy serving path reads the data twice — selector.ProfileOf(xs)
// to build the selection profile, then alg.Sum(xs) once the policy has
// chosen — so runtime selection costs 2x memory bandwidth even when the
// policy settles on the cheapest algorithm. FusedProfileSum folds the
// profile statistics and two speculative sums in the same loop:
//
//   - ST: the plain left-to-right float64 sum, bit-identical to ST(xs)
//     (zeros and non-finite values included, exactly like sum.Standard);
//   - Sum pair (SumS, SumC): the compensated Neumaier state over the
//     nonzero finite values — the profiling statistic Σx at full
//     compensated accuracy, and simultaneously the Neumaier answer,
//     bit-identical to Neumaier(xs) whenever no non-finite value or
//     intermediate overflow occurred (zeros are exact no-ops on a
//     Neumaier accumulator: t = s+0 = s and the residual is +0, which
//     cannot flip c's sign since c never holds -0 on a finite history).
//
// If the policy then picks ST or Neumaier, the fused pass already holds
// the answer and the data is never read again; only escalations to
// CP/PR/superacc pay a second pass. The selector layer
// (selector.FusedProfileSum / SelectAndSum) owns that protocol and pins
// both equalities with exhaustive tests.
//
// FusedAcc is also a monoid (Merge), component-wise identical to
// selector.Profile.Merge plus the engine merges for ST (a+b) and
// Neumaier (nmerge), so per-chunk fused accumulators combined over the
// parallel engine's fixed tree reproduce parallel.Sum's bits for both
// speculative algorithms at any worker count.

// FusedAcc is the state of one fused profile+sum pass. The profile
// fields mirror selector.Profile field-for-field (same accumulation
// order, same bits); ST carries the plain-sum shadow.
type FusedAcc struct {
	// N counts every element, zeros and non-finite values included.
	N int64
	// ST is the plain left-to-right sum of all elements (== kernel.ST).
	ST float64
	// SumS, SumC is the compensated Neumaier pair over nonzero finite
	// elements: Σx for the profile, and the Neumaier(xs) state when
	// nothing non-finite was seen.
	SumS, SumC float64
	// AbsS, AbsC hold Σ|x| over nonzero finite elements. The fold
	// accumulates AbsS plainly (|x| never cancels, so n·u relative
	// accuracy is ample); AbsC is populated only by Merge's exact
	// combination, mirroring selector.Profile.SumAbs.
	AbsS, AbsC float64
	// MaxExp, MinExp are the extreme binary exponents of the nonzero
	// finite elements; valid only when HasNonzero.
	MaxExp, MinExp int
	HasNonzero     bool
	// Pos, Neg count strictly positive and negative finite elements.
	Pos, Neg int64
	// NonFinite records that a NaN or ±Inf was seen; such values enter
	// only N and the ST shadow (where they poison the plain sum exactly
	// as sum.Standard would).
	NonFinite bool
}

// FusedProfileSum folds xs once, producing the complete profile state
// and both speculative sums. The loop keeps four independent float64
// dependency chains (st, the TwoSum pair, the plain |x| sum) that
// schedule in parallel on any modern core, and counts signs branch-free
// from the sign bit, so the pass runs at nearly the speed of the plain
// compensated fold alone.
func FusedProfileSum(xs []float64) FusedAcc {
	var (
		st, s, c, abs float64
		maxE, minE    int
		hasNZ         bool
		pos, neg      int64
		nonFinite     bool
	)
	for _, x := range xs {
		st += x
		if x == 0 {
			continue
		}
		b := math.Float64bits(x)
		e := int(b >> 52 & 0x7ff)
		if e == 0x7ff {
			nonFinite = true
			continue
		}
		// One Neumaier step for Σx. The branch-free TwoSum residual
		// equals the branched Neumaier residual bit-for-bit (both are
		// the exact representable error of the same addition), so the
		// pair tracks kernel.Neumaier exactly (but for the sign of an
		// all -0 sum, whose zeros this loop skips).
		t, e2 := fpu.TwoSum(s, x)
		c += e2
		s = t
		abs += math.Abs(x)
		if e == 0 {
			e = math.Ilogb(x) // subnormal: decode via the slow path
		} else {
			e -= 1023
		}
		if hasNZ {
			if e > maxE {
				maxE = e
			}
			if e < minE {
				minE = e
			}
		} else {
			hasNZ, maxE, minE = true, e, e
		}
		sb := int64(b >> 63)
		neg += sb
		pos += 1 - sb
	}
	return FusedAcc{
		N: int64(len(xs)), ST: st,
		SumS: s, SumC: c, AbsS: abs,
		MaxExp: maxE, MinExp: minE, HasNonzero: hasNZ,
		Pos: pos, Neg: neg, NonFinite: nonFinite,
	}
}

// Merge combines two fused accumulators describing adjacent ranges:
// a+b for the ST shadow (sum.STMonoid), nmerge for both compensated
// pairs (sum.NeumaierMonoid), and selector.Profile.Merge's rules for
// the discrete fields. Merging per-chunk FusedProfileSum states over
// the parallel engine's fixed tree therefore reproduces, bit-for-bit,
// what parallel.Sum computes for ST and Neumaier and what
// selector.ProfileOfParallel computes for the profile.
func (a FusedAcc) Merge(b FusedAcc) FusedAcc {
	// Zero-observation sides merge as an exact identity (mirroring
	// selector.Profile.Merge): the general path's ST += and nmerge
	// against zero are value-preserving but can flip a -0 shadow sum
	// to +0, breaking bitwise agreement with the serial fold.
	if b.N == 0 && !b.NonFinite {
		return a
	}
	if a.N == 0 && !a.NonFinite {
		return b
	}
	out := FusedAcc{
		N:         a.N + b.N,
		ST:        a.ST + b.ST,
		Pos:       a.Pos + b.Pos,
		Neg:       a.Neg + b.Neg,
		NonFinite: a.NonFinite || b.NonFinite,
	}
	out.SumS, out.SumC = nmerge(a.SumS, a.SumC, b.SumS, b.SumC)
	out.AbsS, out.AbsC = nmerge(a.AbsS, a.AbsC, b.AbsS, b.AbsC)
	switch {
	case a.HasNonzero && b.HasNonzero:
		out.HasNonzero = true
		out.MaxExp = max(a.MaxExp, b.MaxExp)
		out.MinExp = min(a.MinExp, b.MinExp)
	case a.HasNonzero:
		out.HasNonzero, out.MaxExp, out.MinExp = true, a.MaxExp, a.MinExp
	case b.HasNonzero:
		out.HasNonzero, out.MaxExp, out.MinExp = true, b.MaxExp, b.MinExp
	}
	return out
}
