package repro

import (
	"fmt"
	"math"

	"repro/internal/selector"
	"repro/internal/sum"
)

// Runtime is the intelligent reduction runtime (the paper's proposal):
// it owns a reproducibility requirement and a selection policy, and
// answers each reduction with the cheapest algorithm expected to stay
// within the requirement. A request is profiled first unless its
// answer is known without a profile: requests the analytic policies
// can only resolve to BN take the exact BN fold directly (see Sum).
type Runtime struct {
	sel *selector.Selector
}

// Option configures a Runtime (see WithPolicy, WithDecisionCache).
type Option func(*Runtime)

// WithPolicy substitutes the Runtime's selection policy: the analytic
// default can be replaced by the bound-driven ProbabilisticPolicy (see
// NewProbabilisticPolicy) or by any other Policy implementation.
func WithPolicy(p Policy) Option {
	return func(rt *Runtime) { rt.sel.Policy = p }
}

// WithDecisionCache attaches a quantized decision cache (capacity in
// entries; <= 0 selects the default 4096): selection decisions are
// memoized per (tolerance, condition, size, dynamic-range) bucket, so
// steady-state traffic skips policy evaluation entirely. Each bucket's
// decision is computed once from the bucket's conservative canonical
// representative, making cached selection a deterministic pure function
// of the data's profile — independent of request order, concurrency, and
// evictions. Inspect hit rates with Runtime.CacheStats.
func WithDecisionCache(capacity int) Option {
	return func(rt *Runtime) {
		rt.sel.Cache = selector.NewDecisionCache(selector.CacheConfig{Capacity: capacity})
	}
}

// New returns a Runtime that keeps the relative run-to-run variability
// of its reductions within tolerance; 0 demands bitwise reproducibility.
func New(tolerance float64, opts ...Option) *Runtime {
	rt := &Runtime{sel: selector.New(tolerance)}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Selector exposes the underlying selector (for distributed use via
// selector.AdaptiveReduce).
func (rt *Runtime) Selector() *selector.Selector { return rt.sel }

// Tolerance returns the configured variability tolerance.
func (rt *Runtime) Tolerance() float64 { return rt.sel.Req.Tolerance }

// CacheStats snapshots the decision cache's hit/miss/occupancy counters;
// ok is false when no cache is attached (see WithDecisionCache).
func (rt *Runtime) CacheStats() (CacheStats, bool) {
	if rt.sel.Cache == nil {
		return CacheStats{}, false
	}
	return rt.sel.Cache.Stats(), true
}

// Report describes one adaptive reduction: what was profiled, what was
// chosen, and what the policy predicted.
//
// A request the analytic policies can only resolve to BN is answered
// by the exact BN fold without a profile pass (see Runtime.Sum). Its
// report holds Algorithm BN, Profile{N: n}, Predicted 0 and zero Bounds
// (Conclusive false); String says the profile was skipped.
type Report struct {
	Algorithm Algorithm
	Profile   Profile
	Predicted float64
	// Bounds are the Hallman–Ipsen per-algorithm forward-error bound
	// estimates computed from the profile the decision was made from
	// (the cache bucket's conservative representative on cached paths)
	// — pure arithmetic on already-collected statistics, no extra data
	// pass. Bounds.Conclusive is false on the non-finite fallback.
	Bounds Bounds
	// PRConfig is set when the prerounded operator was chosen: the
	// tolerance-tuned bin configuration (selector.TunePR).
	PRConfig *sum.PRConfig
	// NonFinite is set when the profile was poisoned by NaN/±Inf inputs
	// and the runtime fell back to the standard iterative sum — the one
	// operator whose result follows IEEE non-finite propagation exactly
	// (compensated corrections manufacture NaN out of Inf−Inf, and PR's
	// binning is undefined on non-finite operands). No variability
	// contract applies to such data.
	NonFinite bool
}

// String summarizes the report.
func (r Report) String() string {
	if r.NonFinite {
		return fmt.Sprintf("chose %s (%s) for %v (non-finite input; no variability contract)",
			r.Algorithm, r.Algorithm.FullName(), r.Profile)
	}
	if r.Bounds == (Bounds{}) {
		return fmt.Sprintf("chose %s (%s) for n=%d (exact sum, profile skipped: no cheaper rung meets the tolerance)",
			r.Algorithm, r.Algorithm.FullName(), r.Profile.N)
	}
	return fmt.Sprintf("chose %s (%s) for %v (predicted variability %.3g)",
		r.Algorithm, r.Algorithm.FullName(), r.Profile, r.Predicted)
}

// Sum profiles xs, selects the cheapest acceptable algorithm, and sums.
// When the prerounded operator is selected its fold budget is tuned to
// the tolerance (selector.TunePR) — the paper's precision-tuning idea
// applied to the one algorithm with a precision knob.
//
// The pass is fused and speculative (selector.SelectAndSum): profiling
// already yields the ST and Neumaier answers, so those selections never
// read xs a second time, and every result is bit-identical to the
// two-pass profile-then-sum route.
//
// Some requests can only resolve to BN for data of two or more finite
// operands, not all zero: tolerance 0 under the analytic policies (the
// default heuristic and the bound-driven ProbabilisticPolicy), and,
// under the heuristic, any tolerance its ST prediction 2u·√n·k exceeds
// at a floor under every condition number a profile of n values can
// show (k = 1 - 2n·u, just below 1). With u = 2^-53 that is every n >= 20,282,410 at
// 1e-12, n >= 202,825 at 1e-13, n >= 2,029 at 1e-14, n >= 21 at 1e-15
// and every n >= 2 below 3.14e-16. Such requests skip the profile: the
// BN fold runs first and its exact answer is returned when it shows the
// input was of that kind — exact-zero sums of nonzero operands
// included. The rest (empty, single, all-zero, non-finite, or sums
// above 2^1000) take the full route. Bits, Algorithm and NonFinite are
// those of the full route on every input.
func (rt *Runtime) Sum(xs []float64) (float64, Report) {
	v, sel := rt.sel.SelectAndSum(xs)
	return v, reportOf(sel)
}

// reportOf translates a fused-path selection into the runtime's report.
func reportOf(sel selector.Selection) Report {
	rep := Report{
		Algorithm: sel.Alg,
		Profile:   sel.Profile,
		Predicted: sel.Predicted,
		Bounds:    sel.Bounds,
		PRConfig:  sel.PR,
		NonFinite: sel.NonFinite,
	}
	if sel.NonFinite {
		rep.Predicted = math.Inf(1)
	}
	return rep
}

// BlockReport records the per-block decision of a hierarchical sum.
type BlockReport struct {
	Start, End int
	Report     Report
}

// HierarchicalSum implements subtree-level selection: xs is split into
// blocks of blockSize (<= 0 selects 4096), each block is profiled
// independently and reduced with its own cheapest acceptable algorithm,
// and the block partials are combined with the cheapest reproducible
// operator on the ladder (sum.CheapestReproducible — the binned rung) so
// the combination step never reintroduces order sensitivity.
//
// Blocks whose local data is benign (same sign, narrow range) get the
// cheap operator even when the global set is hostile — the cost saving
// the paper's Section V-D argues for.
//
// Caveat: the tolerance contract applies per block. When blocks cancel
// strongly against each other, the global relative error can exceed the
// per-block tolerance by the ratio of global to block condition
// numbers; use Sum (whole-set profiling) when the contract must hold
// for the global result.
func (rt *Runtime) HierarchicalSum(xs []float64, blockSize int) (float64, []BlockReport) {
	if blockSize <= 0 {
		blockSize = 4096
	}
	n := len(xs)
	if n == 0 {
		return 0, nil
	}
	reports := make([]BlockReport, 0, (n+blockSize-1)/blockSize)
	// Block partials are folded with the cheapest reproducible rung of
	// the ladder so the final combination is insensitive to block order
	// (e.g. if blocks completed on different ranks at different times);
	// the fold runs in block order anyway.
	acc := sum.CheapestReproducible().NewAccumulator()
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		v, rep := rt.Sum(xs[lo:hi])
		acc.Add(v)
		reports = append(reports, BlockReport{Start: lo, End: hi, Report: rep})
	}
	return acc.Sum(), reports
}
