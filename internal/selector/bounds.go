package selector

import (
	"fmt"
	"math"

	"repro/internal/fpu"
	"repro/internal/sum"
)

// Forward-error bound estimators after Hallman & Ipsen
// (arXiv:2107.01604; precision-aware follow-up arXiv:2203.15928).
//
// The paper's Fig 2 point is that deterministic worst-case bounds
// overestimate real summation error so badly that they force needlessly
// expensive algorithm picks. Hallman–Ipsen model each rounding as a
// mean-independent random variable bounded by the unit roundoff u and
// obtain, via martingale concentration, bounds tighter by ~sqrt(h)
// (h = length of the longest accumulation chain) that hold with
// probability at least 1 - 2*exp(-λ²/2) for a chosen confidence
// parameter λ. Both families are computable from quantities the
// one-pass Profile already collects — n, Σ|x|, the extreme binary
// exponents, and the compensated Σx pair — so the estimates surface in
// every Report without touching the data again.
//
// All bounds here are ABSOLUTE forward-error bounds |ŝ - s| on a
// single execution; the run-to-run variability the selection policies
// contract on is bounded by the spread of results around the true sum,
// so the relative bound (Bounds.Rel) is also a valid variability
// prediction, with reproducible algorithms pinned to exactly 0.
//
// Every deterministic bound is a theorem (Higham ASNA §4; Neumaier
// 1974; the binned/prerounded dropped-residual models of their
// packages), evaluated with guarded profile estimates so that the
// profile's own O(n·u) accumulation error cannot push the reported
// bound below the truth; the differential-validation tests check them
// against bigref ground truth across the fig12 grid and adversarial
// generators — deterministic bounds are never violated, probabilistic
// bounds are violated at most at the stated failure rate.

// DefaultLambda is the confidence parameter used when the policy does
// not specify one: failure probability 2*exp(-8) ≈ 6.7e-4 per bound.
const DefaultLambda = 4.0

// FailureProb returns the probabilistic bounds' nominal failure
// probability 2*exp(-λ²/2), capped at 1.
func FailureProb(lambda float64) float64 {
	p := 2 * math.Exp(-lambda*lambda/2)
	if p > 1 {
		return 1
	}
	return p
}

// Gamma returns Higham's rounding-accumulation factor
// γ_m(u) = m·u / (1 - m·u) for m accumulated roundings at unit
// roundoff u. The raw formula turns negative (then explodes) once
// m·u >= 1; the classical bounds are vacuous there, so Gamma pins the
// intended reading: +Inf for m·u >= 1, 0 for m <= 0.
func Gamma(m, u float64) float64 {
	if m <= 0 {
		return 0
	}
	mu := m * u
	if mu >= 1 {
		return math.Inf(1)
	}
	return mu / (1 - mu)
}

// BoundPlan names the summation plan whose accumulation-chain height
// the ST bound models. Compensated and reproducible algorithms have
// plan-independent bounds; only the plain sum's error grows with the
// chain it is folded along.
type BoundPlan uint8

const (
	// SerialPlan models the serial left-to-right fold the fused
	// serving path (SelectAndSum) executes: chain height n-1. The zero
	// value, so the default.
	SerialPlan BoundPlan = iota
	// BalancedPlan models execution on a balanced reduction tree
	// (grid sweeps, tree-imposed collectives): chain height ⌈log2 n⌉.
	BalancedPlan
)

// String names the plan.
func (pl BoundPlan) String() string {
	if pl == BalancedPlan {
		return "balanced"
	}
	return "serial"
}

// Bound is one algorithm's absolute forward-error bound pair: Det
// always holds; Prob holds with probability at least 1-FailureProb.
type Bound struct {
	Det, Prob float64
}

// boundAlgs sizes the per-algorithm bound table (> the number of
// registered algorithms; indexed by sum.Algorithm).
const boundAlgs = 8

// Bounds holds per-algorithm forward-error bound estimates for one
// profile, evaluated at confidence λ and unit roundoff U. The zero
// value is not meaningful; construct with ComputeBounds (or the
// plan/precision-aware variants).
type Bounds struct {
	// Lambda is the confidence parameter; FailProb the corresponding
	// nominal failure probability 2*exp(-λ²/2) of each Prob bound.
	Lambda   float64
	FailProb float64
	// U is the unit roundoff the bounds were evaluated at
	// (fpu.UnitRoundoff for float64; 2^-24 for the float32 regime).
	U float64
	// Plan is the summation plan the ST bound models.
	Plan BoundPlan
	// N, AbsSum, Sum echo the guarded profile quantities the bounds
	// were computed from (AbsSum is inflated by the profile's own
	// worst-case accumulation error; Sum is the compensated estimate).
	N      int64
	AbsSum float64
	Sum    float64
	// Conclusive is false when the profile was poisoned by non-finite
	// values or the estimates are NaN; every bound is then +Inf and
	// policies must fall back to a non-bound route.
	Conclusive bool
	// ByAlg is the bound table indexed by sum.Algorithm. Use For.
	ByAlg [boundAlgs]Bound
}

// ComputeBounds evaluates the float64 bound estimators for the serial
// serving plan at confidence lambda (<= 0 selects DefaultLambda).
func ComputeBounds(p Profile, lambda float64) Bounds {
	return ComputeBoundsPlan(p, lambda, SerialPlan)
}

// ComputeBoundsPlan is ComputeBounds with an explicit execution plan
// for the plain-sum chain height.
func ComputeBoundsPlan(p Profile, lambda float64, plan BoundPlan) Bounds {
	return ComputeBoundsU(p, lambda, fpu.UnitRoundoff, plan)
}

// ComputeBoundsU evaluates the bound estimators at an arbitrary unit
// roundoff u — the precision-aware form (arXiv:2203.15928). Pass
// u = 0x1p-24 for float32 accumulation over a profile of the exactly
// embedded float32 values (the sum32 regime); the dropped-residual
// models of the float64-specific reproducible engines (BN, PR) are
// only meaningful at u = fpu.UnitRoundoff.
func ComputeBoundsU(p Profile, lambda float64, u float64, plan BoundPlan) Bounds {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	b := Bounds{
		Lambda:   lambda,
		FailProb: FailureProb(lambda),
		U:        u,
		Plan:     plan,
		N:        p.N,
	}
	n := float64(p.N)
	gN := Gamma(n, u)
	// Guard the plainly accumulated Σ|x| against its own worst-case
	// accumulation error so the reported bounds can never dip below
	// what exact profile quantities would give.
	abs := p.SumAbs.Float64() * (1 + gN)
	s := math.Abs(p.Sum.Float64())
	b.AbsSum, b.Sum = abs, s
	switch {
	case p.NonFinite || math.IsNaN(abs) || math.IsNaN(s):
		for i := range b.ByAlg {
			b.ByAlg[i] = Bound{Det: math.Inf(1), Prob: math.Inf(1)}
		}
		return b
	case p.N <= 1 || abs == 0:
		// A single operand is returned by every rounding-error-free
		// fold exactly, and an all-zero (or empty) set sums to zero
		// under every algorithm; only the windowed prerounding engine
		// can still drop residual bits of a lone operand (the binned
		// engine's deposit is exact, so its bound is zero here too).
		b.Conclusive = true
		if p.N == 1 && abs > 0 {
			maxAbs := math.Ldexp(1, p.MaxExp+1)
			b.ByAlg[sum.PreroundedAlg] = prBound(1, maxAbs, 0)
		}
		return b
	}
	b.Conclusive = true
	// Chain heights. Under the serial serving plan the plain sum folds
	// along the full n-1 chain and the pairwise operator along its
	// blocked-recursion chain (sum.PairwiseChainHeight — the 64-wide
	// serial base case makes it much longer than the ideal ⌈log2 n⌉).
	// Under a balanced execution tree both collapse to the tree height.
	hBal := math.Ceil(math.Log2(n))
	hST := n - 1
	var hPW float64
	if p.N <= 1<<40 {
		hPW = float64(sum.PairwiseChainHeight(int(p.N)))
	} else {
		// Upper bound on the same height (base chain ≤ 63 plus one
		// per level), safe from int conversion at extreme counts.
		hPW = 63 + math.Ceil(math.Log2(n/64))
	}
	if plan == BalancedPlan {
		hST = hBal
		hPW = hBal
	}
	// maxAbs bounds the largest operand magnitude from the profile's
	// extreme exponent; sqrt(abs*maxAbs) bounds the operand 2-norm
	// (Hallman–Ipsen state their probabilistic first-order terms in
	// ‖x‖₂, which the profile does not carry directly).
	maxAbs := math.Ldexp(1, p.MaxExp+1)
	l2 := math.Sqrt(abs * maxAbs)
	if l2 > abs {
		l2 = abs
	}

	// ST / PW — plain recursive summation along a chain of height h.
	// Deterministic: γ_h·Σ|x| (Higham §4.2), rigorous for any data and
	// any accumulation order of that height.
	//
	// Probabilistic: the λ-confidence rms partial-sum estimate. Each
	// rounding contributes an independent mean-zero error of rms
	// u/(2√3) relative to its partial sum (H–I's mean-independence
	// model with the uniform-rounding variance rather than the
	// worst-case magnitude u), and the intermediate sums decompose
	// into a coherent drift toward Σx plus a sign-mixing random walk
	// at the operand 2-norm scale:
	//
	//	serial chain:  Σᵢ sᵢ²     ≈ n·S²/3        + (n/2)·‖x‖₂²
	//	balanced tree: Σ s_node²  ≈ 2·S²          + h·‖x‖₂²
	//	blocked PW:    block serial chains + the split tree above them
	//
	// so the estimate is λ·(u/2√3)·sqrt(coh + walk). Unlike the
	// worst-case γ-shape it sees cancellation (S ≪ Σ|x| shrinks the
	// coherent term), which is what lets the probabilistic policy
	// match a measured calibration table without a sweep. It is an
	// estimator, not a rigorous bound: it assumes sign-mixed operand
	// order (an adversarially sign-sorted input concentrates its
	// partial sums beyond the walk term). The differential validation
	// suite pins its violation rate at ≤ the stated FailProb.
	bb := float64(sum.PairwiseBlock)
	stCoh, stWalk := n*s*s/3, n/2*l2*l2
	pwCoh, pwWalk := stCoh, stWalk
	if n > bb {
		pwCoh = 2*s*s + bb*bb/(3*n)*s*s
		pwWalk = (bb/2 + math.Log2(n/bb)) * l2 * l2
	}
	if plan == BalancedPlan {
		stCoh, stWalk = 2*s*s, hBal*l2*l2
		pwCoh, pwWalk = stCoh, stWalk
	}
	b.ByAlg[sum.StandardAlg] = chainBound(hST, stCoh+stWalk, abs, lambda, u)
	b.ByAlg[sum.PairwiseAlg] = chainBound(hPW, pwCoh+pwWalk, abs, lambda, u)

	// K — Kahan: componentwise backward error 2u + O(n·u²) per operand
	// (Higham Thm 4.8): deterministic (2u + 2γ_n²)·Σ|x|. The
	// probabilistic estimate follows the rms model: the compensation
	// cancels the chain's first-order drift, leaving the final
	// rounding at the |S| scale, a few effective residual roundings at
	// the ‖x‖₂ node scale (hence the factor-2 walk weight, sized on
	// the differential tree sweeps), and the concentrated second-order
	// term λu²√n·Σ|x|.
	kDet := (2*u+2*gN*gN)*abs + u*s
	kProb := math.Min(kDet, lambda*rmsU(u)*math.Sqrt(s*s+4*l2*l2)+lambda*u*u*math.Sqrt(n)*abs+u*s)
	b.ByAlg[sum.KahanAlg] = Bound{Det: kDet, Prob: kProb}

	// N / CP — Neumaier's pair and the double-double composite carry
	// every addition's error exactly and round once at the end:
	// deterministic u·|s| + 2γ_n²·Σ|x| (Neumaier 1974), probabilistic
	// second-order term concentrating as λ·u²·sqrt(n).
	nDet := u*s + 2*gN*gN*abs
	nProb := math.Min(nDet, u*s+2*lambda*u*u*math.Sqrt(n)*abs)
	b.ByAlg[sum.NeumaierAlg] = Bound{Det: nDet, Prob: nProb}
	b.ByAlg[sum.CompositeAlg] = Bound{Det: nDet, Prob: nProb}

	// BN — the full-range binned engine's deposit is fully exact (the
	// third fold's grid sits ≥ 2^12 below any in-window ulp, so no
	// residual is ever dropped; see internal/binned and DESIGN.md), and
	// Finalize returns the correctly-rounded exact sum. The only error
	// is that final rounding, u·|S|, padded by the same 2γ²·Σ|x| guard
	// the exactly-compensated operators carry for the profile's own
	// estimate of |S|.
	bn := u*s + 2*gN*gN*abs
	b.ByAlg[sum.BinnedAlg] = Bound{Det: bn, Prob: bn}

	// PR — the windowed prerounded operator's dropped-residual model
	// (selector.TunePR) at the default configuration; reproducibility
	// is bitwise regardless, only accuracy varies.
	b.ByAlg[sum.PreroundedAlg] = prBound(n, maxAbs, u*s)
	return b
}

// rmsU converts a worst-case unit roundoff into a conservative rms of
// one rounding: uniform in ±ulp(s)/2 with ulp(s) up to 2u·|s| (the
// partial sum sits anywhere in its binade, so the exponent-quantized
// ulp can be twice the relative roundoff), giving 2u/(2√3) = u/√3.
func rmsU(u float64) float64 { return u / math.Sqrt(3) }

// chainBound pairs the rigorous γ_h·Σ|x| deterministic bound of a
// plain accumulation chain of height h with the λ-confidence rms
// estimate over its modeled second moment of partial sums sumSq.
func chainBound(h, sumSq, abs, lambda, u float64) Bound {
	g := Gamma(h, u)
	det := g * abs
	prob := lambda * rmsU(u) * math.Sqrt(sumSq) * (1 + g)
	if prob > det {
		prob = det
	}
	return Bound{Det: det, Prob: prob}
}

// prBound is the prerounded operator's dropped-residual bound at the
// default configuration, plus the final-rounding term us.
func prBound(n, maxAbs, us float64) Bound {
	cfg := sum.DefaultPRConfig()
	dropped := n * math.Ldexp(maxAbs, -(cfg.F-1)*cfg.W+1)
	return Bound{Det: us + dropped, Prob: us + dropped}
}

// For returns the bound pair for alg (+Inf for unregistered values).
func (b Bounds) For(alg sum.Algorithm) Bound {
	if int(alg) >= boundAlgs || !alg.Valid() {
		return Bound{Det: math.Inf(1), Prob: math.Inf(1)}
	}
	return b.ByAlg[alg]
}

// Rel returns alg's bound pair relative to the profiled |Σx| — the
// same normalization the selection tolerance contracts on. A zero sum
// with nonzero operands yields +Inf (no finite relative accuracy can
// be promised); an all-zero or empty set yields 0.
func (b Bounds) Rel(alg sum.Algorithm) Bound {
	ab := b.For(alg)
	if b.AbsSum == 0 {
		return Bound{}
	}
	if b.Sum == 0 {
		return Bound{Det: math.Inf(1), Prob: math.Inf(1)}
	}
	return Bound{Det: ab.Det / b.Sum, Prob: ab.Prob / b.Sum}
}

// String renders the headline bounds.
func (b Bounds) String() string {
	if !b.Conclusive {
		return "bounds{inconclusive}"
	}
	return fmt.Sprintf("bounds{λ=%g p=%.2g ST det=%.3g prob=%.3g N det=%.3g prob=%.3g}",
		b.Lambda, b.FailProb,
		b.ByAlg[sum.StandardAlg].Det, b.ByAlg[sum.StandardAlg].Prob,
		b.ByAlg[sum.NeumaierAlg].Det, b.ByAlg[sum.NeumaierAlg].Prob)
}

// ProbabilisticPolicy selects the cheapest ladder algorithm whose
// λ-confidence relative error bound clears the tolerance — the
// Hallman–Ipsen replacement for both the worst-case heuristic (whose
// deterministic shapes overestimate by ~sqrt(n)) and the measured
// calibration table (whose sweeps cost minutes). Reproducible
// algorithms predict exactly 0 variability whatever their error bound,
// so the ladder walk always terminates.
//
// When the bounds are inconclusive — the profile was poisoned by
// non-finite values, or an overflowed Σ|x| turned the estimates NaN —
// the policy delegates to the analytic HeuristicPolicy, so the
// poisoned-path behavior of the serving stack is preserved exactly.
//
// At tolerance 0 a non-reproducible rung is accepted only on a
// degenerate profile (at most one value, or all zeros), where every
// order gives the same bits. Elsewhere its bound is no bitwise
// guarantee: on tiny-magnitude data the bound arithmetic underflows to
// a zero estimate although the plain sum still depends on the order.
type ProbabilisticPolicy struct {
	// Lambda is the confidence parameter (<= 0 selects DefaultLambda):
	// each accepted bound holds with probability 1 - 2*exp(-λ²/2).
	Lambda float64
	// Plan is the summation plan the plain-sum bound models
	// (SerialPlan matches the fused serving path; BalancedPlan the
	// grid sweeps and tree-imposed collectives).
	Plan BoundPlan
}

// NewProbabilisticPolicy returns a ProbabilisticPolicy at the given
// confidence (<= 0 selects DefaultLambda) with the default serial plan.
func NewProbabilisticPolicy(lambda float64) ProbabilisticPolicy {
	return ProbabilisticPolicy{Lambda: lambda}
}

// lambda returns the effective confidence parameter.
func (pp ProbabilisticPolicy) lambda() float64 {
	if pp.Lambda <= 0 {
		return DefaultLambda
	}
	return pp.Lambda
}

// plan returns the effective bound plan.
func (pp ProbabilisticPolicy) plan() BoundPlan { return pp.Plan }

// Select implements Policy: the cheapest SelectionLadder algorithm
// whose bound-implied variability estimate meets the requirement, with
// the reproducible rungs predicting 0.
//
// The tolerance contract here is the one every policy in this package
// shares: a one-σ relative variability target (HeuristicPolicy's
// shapes are σ-scale estimates compared directly; CalibratedPolicy
// measures σ and applies its own safety factor). The probabilistic
// entries are λ-confidence levels — λ·σ under the rms model — so the
// policy divides by λ to recover the σ estimate; equivalently, it
// accepts when the λ-confidence bound stays within λ× the target.
// Comparing the λ-level itself against the tolerance would silently
// re-introduce a worst-case safety factor and make the policy
// systematically more conservative than a calibration table at the
// same tolerance.
func (pp ProbabilisticPolicy) Select(p Profile, req Requirement) (sum.Algorithm, float64) {
	b := ComputeBoundsPlan(p, pp.lambda(), pp.plan())
	if !b.Conclusive {
		return HeuristicPolicy{}.Select(p, req)
	}
	for _, alg := range sum.SelectionLadder {
		var pred float64
		if !alg.Reproducible() {
			if req.Tolerance == 0 && !p.degenerate() {
				continue
			}
			pred = b.Rel(alg).Prob / b.Lambda
		}
		if pred <= req.Tolerance {
			return alg, pred
		}
	}
	return sum.CheapestReproducible(), 0
}

// boundsFor evaluates the bound estimators a decision should carry:
// at the policy's own confidence and plan when the policy is
// bound-driven, at the defaults otherwise.
func boundsFor(pol Policy, p Profile) Bounds {
	if pp, ok := pol.(ProbabilisticPolicy); ok {
		return ComputeBoundsPlan(p, pp.lambda(), pp.plan())
	}
	return ComputeBounds(p, 0)
}
