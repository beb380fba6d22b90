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
// BN/CP/PR pay a second pass. The selector layer
// (selector.FusedProfileSum / SelectAndSum) owns that protocol and pins
// both equalities with exhaustive tests. Requests the analytic
// policies can only escalate to BN (tolerance 0, and tight tolerances
// under the heuristic at large enough n) skip this pass and run the BN
// fold alone (the selector's exact bypass).

// FusedAcc is the state of one fused profile+sum pass. The profile
// fields mirror selector.Profile's (same accumulation order, same
// bits), except that SumAbs's correction, which a serial fold leaves
// at 0, has no field; ST carries the plain-sum shadow.
type FusedAcc struct {
	// N counts every element, zeros and non-finite values included.
	N int64
	// ST is the plain left-to-right sum of all elements (== kernel.ST).
	ST float64
	// SumS, SumC is the compensated Neumaier pair over nonzero finite
	// elements: Σx for the profile, and the Neumaier(xs) state when
	// nothing non-finite was seen.
	SumS, SumC float64
	// AbsS is Σ|x| over nonzero finite elements, accumulated plainly
	// (|x| never cancels, so n·u relative accuracy is ample), as
	// selector.Profile.SumAbs.S is.
	AbsS float64
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
// schedule in parallel on any modern core, and does its bookkeeping
// with integer operations that need no per-element branch:
//
//   - one unsigned compare on a = bits &^ sign rejects zeros and
//     non-finite values together (a-1 wraps past the Inf/NaN boundary
//     for a == 0), so the common element takes a single predictable
//     branch;
//   - the exponent extremes are carried as the running max and min of
//     a itself — |x| orders exactly like its magnitude bits, subnormals
//     included — and decoded once with math.Ilogb after the loop;
//   - the sign count is the sum of sign bits, and Pos is the nonzero
//     count minus Neg.
//
// The pass is therefore bound by the floating-point adds of the ST
// shadow and the TwoSum chain, and every field keeps the bits of the
// per-element reference (selector.ProfileOf's observe loop).
func FusedProfileSum(xs []float64) FusedAcc {
	const (
		signBit = 1 << 63
		infBits = 0x7ff << 52 // magnitude bits of +Inf; NaNs lie above
	)
	var (
		st, s, c, abs float64
		maxA          uint64
		minA          uint64 = math.MaxUint64
		nz, neg       int64
		nonFinite     bool
	)
	for _, x := range xs {
		st += x
		b := math.Float64bits(x)
		a := b &^ signBit
		if a-1 >= infBits-1 {
			// Zero (skipped by every profile arm) or NaN/±Inf (poison).
			if a != 0 {
				nonFinite = true
			}
			continue
		}
		// One Neumaier step for Σx. The branch-free TwoSum residual
		// equals the branched Neumaier residual bit-for-bit (both are
		// the exact representable error of the same addition), so the
		// pair tracks kernel.Neumaier exactly (but for the sign of an
		// all -0 sum, whose zeros this loop skips).
		t, e := fpu.TwoSum(s, x)
		c += e
		s = t
		abs += math.Float64frombits(a)
		maxA = max(maxA, a)
		minA = min(minA, a)
		nz++
		neg += int64(b >> 63)
	}
	acc := FusedAcc{
		N: int64(len(xs)), ST: st,
		SumS: s, SumC: c, AbsS: abs,
		Pos: nz - neg, Neg: neg, NonFinite: nonFinite,
	}
	if nz > 0 {
		acc.HasNonzero = true
		acc.MaxExp = math.Ilogb(math.Float64frombits(maxA))
		acc.MinExp = math.Ilogb(math.Float64frombits(minA))
	}
	return acc
}
