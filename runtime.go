package repro

import "repro/internal/selector"

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
		rt.sel.Cache = selector.NewDecisionCache(capacity)
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

// Selector exposes the underlying selector, whose layers (profile,
// decide, cache) in-module tools call directly. Without a policy it
// serves at tolerance 0.
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

// Report describes one reduction: what was profiled, what was chosen,
// and what the policy predicted (see selector.Selection). A request
// answered by the exact BN fold without a profile pass reports
// Algorithm BN, Profile{N: n}, Predicted 0 and zero Bounds; String
// says the profile was skipped. The poisoned fallback (NonFinite)
// reports ST and Predicted +Inf.
type Report = selector.Selection

// Sum sums xs. Without a policy it returns the exact sum as New(0)
// does: bits, Algorithm, NonFinite and Profile are New(0)'s at every
// tolerance, and finite, non-degenerate data takes the BN fold with no
// profile pass (0.54 ms for 1M values on a 2-vCPU Xeon, against 3.48 ms
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
func (rt *Runtime) Sum(xs []float64) (float64, Report) { return rt.sel.SelectAndSum(xs) }
