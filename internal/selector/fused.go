package selector

import (
	"math"

	"repro/internal/binned"
	"repro/internal/kernel"
	"repro/internal/parallel"
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
// (kernel.FusedProfileSum), then consults the policy. When the policy
// picks ST or Neumaier the answer is already in hand and the data is
// never read again; only escalations to PW/K/CP/PR/BN pay a second
// pass. Every result is bitwise-identical to what the two-pass route
// computes, pinned by equivalence tests.
//
// Tolerance-0 requests under the analytic policies skip the profile
// altogether (exactBypass): there the profile can only ever confirm
// BN, so the BN fold runs first and its exact answer is returned
// unless it lands where the policies could have decided otherwise.

// FusedPass is the outcome of one fused profile+sum pass: the complete
// selection profile plus the speculative plain-sum shadow. The Neumaier
// speculation needs no extra field — it IS Profile.Sum.
type FusedPass struct {
	Profile Profile
	// ST is the plain left-to-right (or, for the parallel variant,
	// chunk-tree) sum of all elements including zeros and non-finite
	// values — exactly what sum.Standard / parallel.Sum(StandardAlg)
	// would return.
	ST float64
}

// passOf rebuilds the selector-level view of a kernel accumulator. The
// field mapping is 1:1; the kernel type exists only so the hot loop
// lives with its peer kernels and stays free of selector dependencies.
func passOf(a kernel.FusedAcc) FusedPass {
	return FusedPass{
		Profile: Profile{
			N:          a.N,
			Sum:        CSum{S: a.SumS, C: a.SumC},
			SumAbs:     CSum{S: a.AbsS, C: a.AbsC},
			MaxExp:     a.MaxExp,
			MinExp:     a.MinExp,
			HasNonzero: a.HasNonzero,
			Pos:        a.Pos,
			Neg:        a.Neg,
			NonFinite:  a.NonFinite,
		},
		ST: a.ST,
	}
}

// FusedProfileSum profiles xs and computes both speculative sums in a
// single serial pass. The profile is bit-identical to ProfileOf(xs) and
// the ST shadow to sum.Standard(xs).
func FusedProfileSum(xs []float64) FusedPass {
	return passOf(kernel.FusedProfileSum(xs))
}

// FusedProfileSumParallel is the engine variant: per-chunk fused folds
// combined with kernel.FusedAcc.Merge over the engine's fixed balanced
// tree. The profile matches ProfileOfParallel(xs, cfg) and the
// speculative sums match parallel.Sum(StandardAlg/NeumaierAlg, xs, cfg)
// bit-for-bit at any worker count.
func FusedProfileSumParallel(xs []float64, cfg parallel.Config) FusedPass {
	a, ok := parallel.MapReduce(len(xs), cfg,
		func(lo, hi int) kernel.FusedAcc { return kernel.FusedProfileSum(xs[lo:hi]) },
		kernel.FusedAcc.Merge)
	if !ok {
		return FusedPass{}
	}
	return passOf(a)
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
	// PR is the TunePR configuration; meaningful only when TunedPR.
	PR      sum.PRConfig
	TunedPR bool
}

// decide evaluates the policy (and, for PR selections, the tuner)
// directly, with no cache involved.
func decide(pol Policy, p Profile, req Requirement) Decision {
	alg, pred := pol.Select(p, req)
	d := Decision{Alg: alg, Predicted: pred, Bounds: boundsFor(pol, p)}
	if alg == sum.PreroundedAlg {
		d.PR = TunePR(p, req)
		d.TunedPR = true
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

// Selection describes one fused select-and-sum call, for reporting.
//
// A tolerance-0 request served by the exact bypass (see exactBypass)
// never profiles its data: its Selection holds Profile{N: n}, Alg BN,
// Predicted 0, zero Bounds (Conclusive false) and Fast false.
type Selection struct {
	Profile   Profile
	Alg       sum.Algorithm
	Predicted float64
	// Bounds are the decision's forward-error bound estimates (the
	// bucket representative's on cached paths; inconclusive on the
	// poisoned fallback).
	Bounds Bounds
	// PR is the tuned prerounding configuration when Alg is PR.
	PR *sum.PRConfig
	// Fast reports that the returned sum came out of the speculative
	// pass — the data was read exactly once.
	Fast bool
	// NonFinite reports the poisoned-input fallback: the profile saw
	// NaN/±Inf, selection was skipped, and the ST sum (which absorbs
	// non-finite values with IEEE semantics) was returned.
	NonFinite bool
}

// SelectAndSum is the fused serving call: one pass to profile and
// speculate, a policy consult (cache-aware), and — only if the policy
// escalates past ST/Neumaier — a second pass with the selected
// operator. PR escalations run with the TunePR-sized configuration.
// Poisoned inputs fall back to the ST shadow, which equals
// sum.Standard(xs) bit-for-bit. Tolerance-0 requests under the analytic
// policies try the exact bypass first (binned.Sum, no profile).
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
			Profile: prof, Alg: sum.StandardAlg, Fast: true, NonFinite: true,
			Bounds: boundsFor(s.Policy, prof),
		}
	}
	d := s.Decide(prof)
	sel := Selection{Profile: prof, Alg: d.Alg, Predicted: d.Predicted, Bounds: d.Bounds}
	if v, ok := fp.SpecSum(d.Alg); ok {
		sel.Fast = true
		return v, sel
	}
	if d.Alg == sum.PreroundedAlg {
		cfg := d.PR
		sel.PR = &cfg
		return sum.PreroundedWith(cfg, xs), sel
	}
	return d.Alg.Sum(xs), sel
}

// SelectAndSumParallel is SelectAndSum on the parallel engine: fused
// per-chunk folds, the same decision step, and parallel escalation with
// the caller's cfg, so the result always equals the two-pass route
// ProfileOfParallel → Decide → parallel.Sum at the same cfg. Poisoned
// inputs fall back to one serial ST pass, sum.Standard(xs). The exact
// bypass runs parallel.Sum(BinnedAlg) at the same cfg.
func (s *Selector) SelectAndSumParallel(xs []float64, cfg parallel.Config) (float64, Selection) {
	if s.exactBypass(len(xs)) {
		if v := parallel.Sum(sum.BinnedAlg, xs, cfg); bypassServes(v, xs) {
			return v, exactSelection(len(xs))
		}
	}
	fp := FusedProfileSumParallel(xs, cfg)
	prof := fp.Profile
	if prof.NonFinite {
		return sum.Standard(xs), Selection{
			Profile: prof, Alg: sum.StandardAlg, NonFinite: true,
			Bounds: boundsFor(s.Policy, prof),
		}
	}
	d := s.Decide(prof)
	sel := Selection{Profile: prof, Alg: d.Alg, Predicted: d.Predicted, Bounds: d.Bounds}
	if v, ok := fp.SpecSum(d.Alg); ok {
		sel.Fast = true
		return v, sel
	}
	if d.Alg == sum.PreroundedAlg {
		prCfg := d.PR
		sel.PR = &prCfg
		return parallel.SumPR(prCfg, xs, cfg), sel
	}
	return parallel.Sum(d.Alg, xs, cfg), sel
}

// Exact bypass.
//
// At tolerance 0 the analytic policies pick the first ladder rung
// predicting no variability. ST is the only rung before BN. The
// heuristic's ST prediction c_st·u·√n·k is positive (or NaN) on every
// non-degenerate profile, and the bound-driven policy accepts a
// non-reproducible rung at tolerance 0 only on a degenerate one, so
// every request of n >= 2 finite operands, not all zero, resolves to
// BN — with or without the decision cache, whose bucket representatives
// are unit-scale profiles of n >= 3. The profile pass there only
// confirms what the request already says, at more cost than the BN
// fold. The bypass runs the fold first and keeps its answer when the
// exact sum v shows the input was of that kind:
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
// by TestSelectAndSumExactBypass against the two-pass oracle.
const bypassMax = 0x1p1000

// exactBypass reports whether a request of n values may take the exact
// bypass: tolerance 0, n >= 2 and an analytic policy. Every other
// policy — Static, the calibrated table and surface — takes the full
// path unchanged.
func (s *Selector) exactBypass(n int) bool {
	if s.Req.Tolerance != 0 || n < 2 {
		return false
	}
	switch s.Policy.(type) {
	case HeuristicPolicy, ProbabilisticPolicy:
		return true
	}
	return false
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
	return Selection{Profile: Profile{N: int64(n)}, Alg: sum.BinnedAlg}
}
