package repro

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/selector"
	"repro/internal/sum"
)

// Runtime is the intelligent reduction runtime (the paper's proposal):
// it owns a reproducibility requirement and a selection policy, and
// every reduction it performs is preceded by a profiling pass whose
// result picks the cheapest algorithm expected to stay within the
// requirement.
type Runtime struct {
	sel *selector.Selector
	// useEngine enables the deterministic chunked parallel engine for
	// Sum and HierarchicalSum on inputs spanning at least two chunks.
	useEngine bool
	// par configures the engine (zero fields mean auto).
	par parallel.Config
}

// Option configures a Runtime (see WithWorkers, WithChunkSize).
type Option func(*Runtime)

// WithPolicy substitutes the Runtime's selection policy: the analytic
// default can be replaced by a measurement-backed
// selector.CalibratedPolicy or the bound-driven ProbabilisticPolicy.
func WithPolicy(p Policy) Option {
	return func(rt *Runtime) { rt.sel.Policy = p }
}

// WithWorkers routes large reductions through the deterministic chunked
// parallel engine with the given pool size (0 selects GOMAXPROCS). The
// engine's results are bitwise-identical across worker counts — the
// chunk plan, not the scheduling, determines the bits — but for
// order-sensitive algorithms they differ (deterministically) from the
// engine-less streaming path, so enabling the engine is a new, equally
// reproducible, summation plan rather than a transparent accelerator.
func WithWorkers(n int) Option {
	return func(rt *Runtime) {
		rt.useEngine = true
		rt.par.Workers = n
	}
}

// WithChunkSize sets the engine's fixed partition width in elements
// (0 selects parallel.DefaultChunkSize) and enables the engine. The
// chunk size is part of the reproducibility contract: two runtimes agree
// bitwise only if they use the same chunk size.
func WithChunkSize(c int) Option {
	return func(rt *Runtime) {
		rt.useEngine = true
		rt.par.ChunkSize = c
	}
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
	return WithDecisionCacheConfig(CacheConfig{Capacity: capacity})
}

// WithDecisionCacheConfig is WithDecisionCache with explicit cache
// geometry (capacity and shard count for concurrent callers).
func WithDecisionCacheConfig(cfg CacheConfig) Option {
	return func(rt *Runtime) { rt.sel.Cache = selector.NewDecisionCache(cfg) }
}

// WithCalibration installs a host calibration as the Runtime's
// selection policy: the artifact's measured crossover surfaces replace
// the analytic model, fitted once at startup so every selection is a
// handful of comparisons, with a decision cache attached (if none was
// configured) for repeat traffic. Apply after any
// WithDecisionCacheConfig option you want to keep. The closed loop is:
//
//	calibrate -out host.reprocal         // once per host
//	cal, _ := repro.LoadCalibrationFile("host.reprocal")
//	rt := repro.New(1e-12, repro.WithCalibration(cal))
func WithCalibration(cal *Calibration) Option {
	return func(rt *Runtime) {
		rt.sel.Policy = cal.SurfacePolicy()
		if rt.sel.Cache == nil {
			rt.sel.Cache = selector.NewDecisionCache(CacheConfig{})
		}
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
// A tolerance-0 request under the analytic policies is answered by the
// exact BN fold without a profile pass (see Runtime.Sum). Its report
// holds Algorithm BN, Profile{N: n}, Predicted 0 and zero Bounds
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
		return fmt.Sprintf("chose %s (%s) for n=%d (tolerance 0: exact sum, profile skipped)",
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
// At tolerance 0 the analytic policies (the default heuristic and the
// bound-driven ProbabilisticPolicy) can only choose BN for data of two
// or more finite operands, not all zero, so such requests skip the
// profile: the BN fold runs first and its exact answer is returned when
// it shows the input was of that kind — exact-zero sums of nonzero
// operands included. The rest (empty, single, all-zero, non-finite, or
// sums above 2^1000) take the full route. Bits, Algorithm and NonFinite
// are those of the full route on every input.
//
// With the engine enabled (WithWorkers/WithChunkSize) and
// an input spanning at least two chunks, both the profiling pass and
// the sum run on the deterministic chunked worker pool
// (selector.SelectAndSumParallel); the result is bitwise-stable across
// worker counts.
func (rt *Runtime) Sum(xs []float64) (float64, Report) {
	if rt.engineFor(len(xs)) {
		v, sel := rt.sel.SelectAndSumParallel(xs, rt.par)
		return v, reportOf(sel)
	}
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

// engineFor reports whether the parallel engine should run a reduction
// of n values: it must be enabled and the input must span at least two
// chunks (below that the plan degenerates to the sequential pass).
func (rt *Runtime) engineFor(n int) bool {
	if !rt.useEngine {
		return false
	}
	cs := rt.par.ChunkSize
	if cs <= 0 {
		cs = parallel.DefaultChunkSize
	}
	return n > cs
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
//
// With the engine enabled, blocks are profiled and summed concurrently
// on the worker pool. Each block's result is a pure function of the
// block's elements and the partials are folded in block order with a
// reproducible operator, so the global result is bitwise-identical to
// the sequential run regardless of worker count.
func (rt *Runtime) HierarchicalSum(xs []float64, blockSize int) (float64, []BlockReport) {
	if blockSize <= 0 {
		blockSize = 4096
	}
	n := len(xs)
	if n == 0 {
		return 0, nil
	}
	nb := (n + blockSize - 1) / blockSize
	workers := 1
	if rt.useEngine {
		workers = rt.par.Workers // 0 selects GOMAXPROCS inside For
	}
	vals := make([]float64, nb)
	reports := make([]BlockReport, nb)
	parallel.For(nb, workers, func(i int) {
		lo := i * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		v, rep := rt.Sum(xs[lo:hi])
		vals[i] = v
		reports[i] = BlockReport{Start: lo, End: hi, Report: rep}
	})
	// Block partials are folded with the cheapest reproducible rung of
	// the ladder so the final combination is insensitive to block order
	// (e.g. if blocks completed on different ranks at different times);
	// the fold runs in block order anyway.
	acc := sum.CheapestReproducible().NewAccumulator()
	for _, v := range vals {
		acc.Add(v)
	}
	return acc.Sum(), reports
}
