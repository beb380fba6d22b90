package selector

import (
	"fmt"
	"math"

	"repro/internal/binned"
	"repro/internal/fpu"
	"repro/internal/sum"
)

// Fused speculative serving path.
//
// The two-pass route reads the data twice: ProfileOf(xs) to build the
// selection profile, then alg.Sum(xs) once the policy has chosen — 2x
// memory traffic even when the choice is the cheapest algorithm.
// The fused path folds the profile AND the two cheapest candidate
// answers (ST's plain sum and Neumaier's compensated pair — the
// profile's Σx accumulator is that pair) in one pass over xs
// (FusedProfileSum), then consults the policy. When the policy
// picks ST or Neumaier the answer is already in hand and the data is
// never read again; only escalations to PW/K/CP/PR/BN pay a second
// pass. Every result is bitwise-identical to what the two-pass route
// computes, pinned by equivalence tests.
//
// Requests that the analytic policies can only resolve to BN skip the
// profile altogether (exactBypass): tolerance 0, and under the
// heuristic every tolerance its ST prediction exceeds at the request's
// n for any data. The BN fold runs first and its exact answer is
// returned unless it lands where the policies could have decided
// otherwise.

// FusedPass is the outcome of one fused profile+sum pass: the complete
// selection profile plus the speculative plain-sum shadow. The Neumaier
// speculation needs no extra field — it IS Profile.Sum.
type FusedPass struct {
	Profile Profile
	// ST is the plain left-to-right sum of all elements including
	// zeros and non-finite values — exactly what sum.Standard returns.
	ST float64
}

// FusedProfileSum profiles xs and computes both speculative sums in a
// single serial pass. The profile is bit-identical to ProfileOf(xs) and
// the ST shadow to sum.Standard(xs). The Σx pair is also the Neumaier
// state, bit-identical to kernel.Neumaier(xs) whenever xs holds no
// non-finite value and some nonzero one: zeros are exact no-ops on a
// Neumaier accumulator (t = s+0 = s and the residual is +0, which
// cannot flip c's sign since c never holds -0 on a finite history), so
// skipping them changes only the sign of an all -0 sum.
//
// The loop keeps four independent float64 dependency chains (the ST
// shadow, the TwoSum pair, the plain |x| sum) that schedule in
// parallel on any modern core, and does its bookkeeping with integer
// operations that need no per-element branch:
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
// per-element reference (ProfileOf's observe loop).
func FusedProfileSum(xs []float64) FusedPass {
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
		// the exact representable error of the same addition).
		t, e := fpu.TwoSum(s, x)
		c += e
		s = t
		abs += math.Float64frombits(a)
		maxA = max(maxA, a)
		minA = min(minA, a)
		nz++
		neg += int64(b >> 63)
	}
	p := Profile{
		N:         int64(len(xs)),
		Sum:       CSum{S: s, C: c},
		SumAbs:    CSum{S: abs},
		Pos:       nz - neg,
		Neg:       neg,
		NonFinite: nonFinite,
	}
	if nz > 0 {
		p.HasNonzero = true
		p.MaxExp = math.Ilogb(math.Float64frombits(maxA))
		p.MinExp = math.Ilogb(math.Float64frombits(minA))
	}
	return FusedPass{Profile: p, ST: st}
}

// SpecSum returns the already-computed sum for alg, if this pass holds
// one:
//
//   - StandardAlg: always available — the ST shadow folds every element
//     (non-finite included) exactly as sum.Standard does.
//   - NeumaierAlg: available when no non-finite value was profiled (a
//     real Neumaier fold would have absorbed it; the profile pair
//     skipped it) and the pair itself stayed finite (on an intermediate
//     overflow the branch-free TwoSum residual and Neumaier's branched
//     residual can diverge; overflow is sticky, so a finite final pair
//     proves every intermediate step was finite and the equality exact).
//
// All other algorithms return ok=false: the caller escalates to a real
// second-pass fold.
func (fp FusedPass) SpecSum(alg sum.Algorithm) (float64, bool) {
	switch alg {
	case sum.StandardAlg:
		return fp.ST, true
	case sum.NeumaierAlg:
		if fp.Profile.NonFinite || !fp.Profile.Sum.Finite() {
			return 0, false
		}
		return fp.Profile.Sum.Float64(), true
	}
	return 0, false
}

// Decision is one memoizable selection outcome: the chosen algorithm,
// its predicted variability, the Hallman–Ipsen forward-error bound
// estimates for the profile it was made from, and — when the choice is
// PR — the tuned prerounding configuration. It is a pure function of
// (policy, profile, requirement), which is what makes the decision
// cache sound; cached decisions carry the bounds of the bucket's
// conservative representative, so a hit and a miss report identical
// (and never optimistic) bounds.
type Decision struct {
	Alg       sum.Algorithm
	Predicted float64
	// Bounds are the per-algorithm forward-error bound estimates
	// computed from the same profile the decision was made from (the
	// bucket representative on cached paths) — no extra data pass.
	Bounds Bounds
	// PR is the TunePR configuration; meaningful only when Alg is PR.
	PR sum.PRConfig
}

// decide evaluates the policy (and, for PR selections, the tuner)
// directly, with no cache involved.
func decide(pol Policy, p Profile, req Requirement) Decision {
	alg, pred := pol.Select(p, req)
	d := Decision{Alg: alg, Predicted: pred, Bounds: boundsFor(pol, p)}
	if alg == sum.PreroundedAlg {
		d.PR = TunePR(p, req)
	}
	return d
}

// Decide maps a profile to a selection decision under the selector's
// policy and requirement, going through the decision cache when one is
// attached. Poisoned (NonFinite) profiles always bypass the cache: they
// quantize onto the same bucket as merely ill-conditioned data but must
// keep the legacy poisoned-path behavior exactly.
func (s *Selector) Decide(p Profile) Decision {
	if s.Cache != nil && !p.NonFinite {
		return s.Cache.decide(s.Policy, p, s.Req)
	}
	return decide(s.Policy, p, s.Req)
}

// Selection describes one select-and-sum call: what was profiled, what
// was chosen, and what the policy predicted. It is the runtime's
// report (repro.Report).
//
// A request served by the exact bypass (see exactBypass) never
// profiles its data: its Selection holds Profile{N: n}, Algorithm BN,
// Predicted 0, zero Bounds (Conclusive false) and Fast false; String
// says the profile was skipped.
type Selection struct {
	Algorithm sum.Algorithm
	Profile   Profile
	// Predicted is the policy's predicted relative variability; +Inf
	// on the poisoned fallback.
	Predicted float64
	// Bounds are the Hallman–Ipsen per-algorithm forward-error bound
	// estimates computed from the profile the decision was made from
	// (the cache bucket's conservative representative on cached paths)
	// — pure arithmetic on already-collected statistics, no extra data
	// pass. Bounds.Conclusive is false on the poisoned fallback.
	Bounds Bounds
	// PRConfig is set when the prerounded operator was chosen: the
	// tolerance-tuned bin configuration (TunePR).
	PRConfig *sum.PRConfig
	// Fast reports that the returned sum came out of the speculative
	// pass — the data was read exactly once.
	Fast bool
	// NonFinite reports the poisoned-input fallback: the profile saw
	// NaN/±Inf, selection was skipped, and the ST sum was returned — the
	// one operator whose result follows IEEE non-finite propagation
	// exactly (compensated corrections manufacture NaN out of Inf−Inf,
	// and PR's binning is undefined on non-finite operands). No
	// variability contract applies to such data.
	NonFinite bool
}

// String summarizes the selection.
func (s Selection) String() string {
	if s.NonFinite {
		return fmt.Sprintf("chose %s (%s) for %v (non-finite input; no variability contract)",
			s.Algorithm, s.Algorithm.FullName(), s.Profile)
	}
	if s.Bounds == (Bounds{}) {
		return fmt.Sprintf("chose %s (%s) for n=%d (exact sum, profile skipped)",
			s.Algorithm, s.Algorithm.FullName(), s.Profile.N)
	}
	return fmt.Sprintf("chose %s (%s) for %v (predicted variability %.3g)",
		s.Algorithm, s.Algorithm.FullName(), s.Profile, s.Predicted)
}

// SelectAndSum is the fused serving call: one pass to profile and
// speculate, a policy consult (cache-aware), and — only if the policy
// escalates past ST/Neumaier — a second pass with the selected
// operator. PR escalations run with the TunePR-sized configuration.
// Poisoned inputs fall back to the ST shadow, which equals
// sum.Standard(xs) bit-for-bit. Requests the analytic policies can only
// resolve to BN — tolerance 0, and tolerances the heuristic's ST
// prediction exceeds at n for any data — try the exact bypass first
// (binned.Sum, no profile).
func (s *Selector) SelectAndSum(xs []float64) (float64, Selection) {
	if s.exactBypass(len(xs)) {
		if v := binned.Sum(xs); bypassServes(v, xs) {
			return v, exactSelection(len(xs))
		}
	}
	fp := FusedProfileSum(xs)
	prof := fp.Profile
	if prof.NonFinite {
		return fp.ST, Selection{
			Algorithm: sum.StandardAlg, Profile: prof, Predicted: math.Inf(1),
			Bounds: boundsFor(s.Policy, prof), Fast: true, NonFinite: true,
		}
	}
	d := s.Decide(prof)
	sel := Selection{Algorithm: d.Alg, Profile: prof, Predicted: d.Predicted, Bounds: d.Bounds}
	if v, ok := fp.SpecSum(d.Alg); ok {
		sel.Fast = true
		return v, sel
	}
	if d.Alg == sum.PreroundedAlg {
		cfg := d.PR
		sel.PRConfig = &cfg
		return sum.PreroundedWith(cfg, xs), sel
	}
	return d.Alg.Sum(xs), sel
}

// Exact bypass.
//
// The analytic policies walk the ladder ST, BN, ... and take the first
// rung whose prediction meets the tolerance; BN predicts 0, so a
// request that ST cannot meet resolves to BN. Some requests say so
// before their data is read, and the profile pass there only confirms
// it, at more cost than the BN fold:
//
//   - tolerance 0, under either analytic policy: the heuristic's ST
//     prediction c_st·u·√n·k is positive (or NaN) on every
//     non-degenerate profile, and the bound-driven policy accepts a
//     non-reproducible rung at tolerance 0 only on a degenerate one;
//   - any tolerance under the heuristic that its ST prediction exceeds
//     at a floor under every condition number the profile pass can
//     compute for n values (stFloor): the prediction grows with k, so
//     no profile of n values picks ST. For u = 2^-53 that is every
//     n >= 20,282,410 at 1e-12, n >= 202,825 at 1e-13, n >= 2,029 at
//     1e-14, n >= 21 at 1e-15 and every n >= 2 below 3.14e-16.
//
// In both cases every request of n >= 2 finite operands, not all zero,
// resolves to BN — with or without the decision cache, whose bucket
// representatives sit at n_rep >= n and k_rep >= 1. The bypass runs the
// fold first and keeps its answer when the exact sum v shows the input
// was of that kind:
//
//   - v is NaN or ±Inf: a non-finite operand, which the full path
//     serves with the poisoned ST fallback, or an overflowing sum;
//   - |v| > 2^1000: the profile's Σx estimate can overflow, so the
//     full path decides;
//   - v is 0 and every operand is ±0: the degenerate profile picks ST,
//     and the sign of a -0 sum matters.
//
// An exact zero sum of nonzero operands is served: v == 0 rules out
// NaN and ±Inf operands, and a nonzero operand makes the profile
// non-degenerate. Every other v is returned with algorithm BN: bits,
// Algorithm and NonFinite equal the full path's on every input, pinned
// by TestSelectAndSumExactBypass and FuzzSelectAndSum against the
// two-pass oracle.
const bypassMax = 0x1p1000

// exactBypass reports whether a request of n values may take the exact
// bypass: n >= 2 and either tolerance 0 under an analytic policy or a
// tolerance the heuristic's ST floor exceeds. The bound-driven policy's
// ST estimate depends on its plan and λ, so it keeps the tolerance-0
// rule; every other policy — Static and the calibrated table — takes
// the full path unchanged.
func (s *Selector) exactBypass(n int) bool {
	if n < 2 {
		return false
	}
	switch pol := s.Policy.(type) {
	case HeuristicPolicy:
		return s.Req.Tolerance == 0 || pol.Predict(sum.StandardAlg, stFloor(n)) > s.Req.Tolerance
	case ProbabilisticPolicy:
		return s.Req.Tolerance == 0
	}
	return false
}

// stFloor is a profile of n values whose condition number, 1 - 2n·u,
// lies at or below every one the profile pass computes for n finite
// values, not all zero. Cond = Σ|x| / |Σx| is at least 1 in exact
// arithmetic, but the pass sums |x| plainly, n-1 roundings that can
// each lose u, while the compensated Σx and the quotient round by
// about u more; 2n·u covers both for n >= 2.
func stFloor(n int) Profile {
	return Profile{
		N:      int64(n),
		Sum:    CSum{S: 1},
		SumAbs: CSum{S: 1 - float64(2*n)*fpu.UnitRoundoff},
	}
}

// bypassServes reports whether the bypass may return the exact sum v
// of xs (see the list above). Only a zero sum reads xs, and it stops at
// the first nonzero operand.
func bypassServes(v float64, xs []float64) bool {
	if v == 0 {
		for _, x := range xs {
			if x != 0 {
				return true
			}
		}
		return false
	}
	return math.Abs(v) <= bypassMax
}

// exactSelection is the report of a bypassed request.
func exactSelection(n int) Selection {
	return Selection{Algorithm: sum.BinnedAlg, Profile: Profile{N: int64(n)}}
}
