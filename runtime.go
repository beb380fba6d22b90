package repro

import (
	"fmt"
	"math"

	"repro/internal/selector"
	"repro/internal/sum"
)

// Runtime is the intelligent reduction runtime (the paper's proposal).
// Without a policy it serves every request with the exact BN answer;
// under WithPolicy it answers each with the cheapest algorithm the
// policy expects to stay within the requirement (see Sum).
type Runtime struct {
	sel       *selector.Selector // at tolerance 0 until WithPolicy
	tolerance float64
}

// Option configures a Runtime (see WithPolicy, WithDecisionCache).
type Option func(*Runtime)

// WithPolicy turns on selection under p: each request is profiled and
// summed with the cheapest algorithm p expects to meet the tolerance.
// p can be NewProbabilisticPolicy's, selector.NewHeuristicPolicy() or
// any other Policy.
func WithPolicy(p Policy) Option {
	return func(rt *Runtime) { rt.sel.Policy, rt.sel.Req.Tolerance = p, rt.tolerance }
}

// WithDecisionCache attaches a quantized decision cache (capacity in
// entries; <= 0 selects the default 4096) to selection under
// WithPolicy: decisions are memoized per (tolerance, condition, size,
// dynamic-range) bucket, so steady-state traffic skips policy
// evaluation entirely. Each bucket's decision is computed once from the
// bucket's conservative canonical representative, making cached
// selection a deterministic pure function of the data's profile —
// independent of request order, concurrency, and evictions. Inspect hit
// rates with Runtime.CacheStats.
func WithDecisionCache(capacity int) Option {
	return func(rt *Runtime) {
		rt.sel.Cache = selector.NewDecisionCache(selector.CacheConfig{Capacity: capacity})
	}
}

// New returns a Runtime that keeps the relative run-to-run variability
// of its reductions within tolerance; 0 demands bitwise reproducibility.
// Without WithPolicy it meets every tolerance with the exact answer.
func New(tolerance float64, opts ...Option) *Runtime {
	rt := &Runtime{sel: selector.New(0), tolerance: tolerance}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Selector exposes the underlying selector (for distributed use via
// selector.AdaptiveReduce). Without a policy it serves at tolerance 0.
func (rt *Runtime) Selector() *selector.Selector { return rt.sel }

// Tolerance returns the configured variability tolerance.
func (rt *Runtime) Tolerance() float64 { return rt.tolerance }

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
// A request answered by the exact BN fold without a profile pass (see
// Runtime.Sum) reports Algorithm BN, Profile{N: n}, Predicted 0 and
// zero Bounds (Conclusive false); String says the profile was skipped.
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
		return fmt.Sprintf("chose %s (%s) for n=%d (exact sum, profile skipped)",
			r.Algorithm, r.Algorithm.FullName(), r.Profile.N)
	}
	return fmt.Sprintf("chose %s (%s) for %v (predicted variability %.3g)",
		r.Algorithm, r.Algorithm.FullName(), r.Profile, r.Predicted)
}

// Sum sums xs. Without a policy it returns the exact sum as New(0)
// does: bits, Algorithm, NonFinite and Profile are New(0)'s at every
// tolerance, and finite, non-degenerate data takes the BN fold with no
// profile pass (0.81 ms for 1M values on a 2-vCPU Xeon, against 2.71 ms
// for a profile pass that selects ST; BENCH_selector).
//
// Under WithPolicy, Sum profiles xs, selects the cheapest acceptable
// algorithm, and sums; a PR selection runs with its fold budget tuned
// to the tolerance (selector.TunePR). The pass is fused and speculative
// (selector.SelectAndSum): profiling already yields the ST and Neumaier
// answers, so those selections never read xs a second time, and every
// result is bit-identical to the two-pass profile-then-sum route.
//
// Requests only BN can meet skip the profile: tolerance 0 under the
// analytic policies, and under the heuristic any tolerance its ST
// prediction exceeds at n for every profile (n >= 202,825 at 1e-13,
// n >= 21 at 1e-15; see selector.Selector.SelectAndSum). The BN fold
// runs first; its answer is returned unless the input is empty, single,
// all-zero, non-finite or sums above 2^1000, which take the full route.
// Bits, Algorithm and NonFinite are those of the full route on every
// input.
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
// blocks of blockSize (<= 0 selects 4096), each block is summed by Sum
// (exactly without a policy), and the block partials are combined with
// the cheapest reproducible operator on the ladder
// (sum.CheapestReproducible — the binned rung) so the combination step
// never reintroduces order sensitivity.
//
// Under WithPolicy, blocks whose local data is benign (same sign,
// narrow range) get the cheap operator even when the global set is
// hostile — the cost saving the paper's Section V-D argues for. The
// tolerance contract then applies per block: when blocks cancel
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
