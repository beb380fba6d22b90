// Package repro is a library for reproducible floating-point summation
// at scale, reproducing "On the Need for Reproducible Numerical Accuracy
// through Intelligent Runtime Selection of Reduction Algorithms at the
// Extreme Scale" (Chapp, Johnston, Taufer — IEEE CLUSTER 2015).
//
// It provides:
//
//   - the paper's four summation algorithms — standard (ST), Kahan (K),
//     composite precision (CP), and prerounded (PR) — plus the
//     single-pass binned reproducible engine (BN, the ladder's fast
//     bitwise-reproducible middle rung) in one-shot, streaming, and
//     tree-mergeable forms (Sum, NewAccumulator, Op);
//   - reduction-tree simulation (balanced/unbalanced/random/blocked
//     shapes with permuted operand assignment) and a simulated
//     message-passing runtime with nondeterministic collectives;
//   - data profiling (n, condition number, dynamic range) and the
//     intelligent runtime that picks the cheapest algorithm meeting an
//     application-specified reproducibility tolerance (New, WithPolicy);
//   - the exact, correctly rounded sum (ExactSum), served by the BN
//     engine;
//   - a deterministic chunked parallel engine (ParallelSum) whose
//     results are bitwise-identical across worker counts;
//     ParallelSum(Binned, xs, w) is the exact sum at any w.
//
// The Runtime is the paper's proposal made deployable: data-aware,
// requirement-driven selection of reduction algorithms. A Runtime owns
// a reproducibility requirement. Without a policy it serves the exact
// BN answer, which meets every requirement and costs less than the
// profile pass selection needs. WithPolicy turns selection on: a
// reduction is profiled in one cheap pass (local, streaming, mergeable
// across ranks) whose result picks the cheapest algorithm expected to
// stay within the requirement; that pass also yields the ST and
// Neumaier answers. A request only the exact BN answer can meet skips
// the profile: tolerance 0 under the analytic policies, and under the
// heuristic any tolerance its ST prediction exceeds at n for every
// profile. The paper's closing idea, selecting per subtree, is not
// offered: a block's profile pass costs more than the block's exact
// BN fold.
//
// Quick start:
//
//	rt := repro.New(1e-12)            // tolerated relative variability
//	total, report := rt.Sum(values)   // the exact sum, no profile
//	sel := repro.New(1e-12, repro.WithPolicy(repro.NewProbabilisticPolicy(0)))
//	total, report = sel.Sum(values)   // profiles, selects, sums
//	fmt.Println(total, report)
package repro

import (
	"repro/internal/aggsrv"
	"repro/internal/binned"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/selector"
	"repro/internal/sum"
)

// Algorithm identifies a summation algorithm. The zero value is ST.
type Algorithm = sum.Algorithm

// The registered algorithms, in increasing cost order.
const (
	Standard  = sum.StandardAlg
	Pairwise  = sum.PairwiseAlg
	Kahan     = sum.KahanAlg
	Neumaier  = sum.NeumaierAlg
	Binned    = sum.BinnedAlg
	Composite = sum.CompositeAlg
	// Prerounded is the windowed prerounded operator; Binned is the
	// cheaper single-pass reproducible rung the selector now prefers at
	// tight tolerances.
	Prerounded = sum.PreroundedAlg
)

// Algorithms lists every registered algorithm in cost order.
var Algorithms = sum.Algorithms

// PaperAlgorithms lists the four algorithms the paper evaluates.
var PaperAlgorithms = sum.PaperAlgorithms

// Accumulator is a streaming summation state.
type Accumulator = sum.Accumulator

// Profile summarizes the runtime-estimable properties of a value set.
type Profile = selector.Profile

// Policy maps a data profile and a reproducibility requirement to the
// cheapest acceptable algorithm (see WithPolicy).
type Policy = selector.Policy

// Bounds holds per-algorithm Hallman–Ipsen forward-error bound
// estimates (deterministic and λ-confidence probabilistic) computed
// from a Profile — every Report carries them at no extra data pass.
type Bounds = selector.Bounds

// Bound is one algorithm's (deterministic, probabilistic) absolute
// forward-error bound pair within a Bounds estimate.
type Bound = selector.Bound

// NewProbabilisticPolicy returns the Hallman–Ipsen bound-driven
// policy: it accepts the cheapest algorithm whose λ-confidence
// relative error bound clears the tolerance (lambda <= 0 selects the
// default λ=4, failure probability 2·exp(-λ²/2) ≈ 6.7e-4), falling
// back to the analytic heuristic when the bounds are inconclusive.
// Its picks are cheaper than the worst-case heuristic's by design —
// probabilistic bounds are ~sqrt(n) tighter than deterministic ones.
func NewProbabilisticPolicy(lambda float64) Policy {
	return selector.NewProbabilisticPolicy(lambda)
}

// ComputeBounds evaluates the forward-error bound estimators for a
// profile at confidence lambda (<= 0 selects the default λ=4).
func ComputeBounds(p Profile, lambda float64) Bounds {
	return selector.ComputeBounds(p, lambda)
}

// CacheStats is an observability snapshot of a decision cache: hits,
// misses, and current occupancy.
type CacheStats = selector.CacheStats

// Sum computes the sum of xs with the given algorithm.
func Sum(alg Algorithm, xs []float64) float64 { return alg.Sum(xs) }

// Dot computes the dot product of a and b with the given algorithm; the
// Prerounded variant is bitwise reproducible under any reduction order.
func Dot(alg Algorithm, a, b []float64) float64 { return sum.Dot(alg, a, b) }

// ExactSum returns the exact, correctly rounded (nearest, ties to even)
// sum of xs, independent of order; it is the BN engine's one-shot sum,
// the same bits as ParallelSum(Binned, xs, w) for any w. Non-finite
// inputs follow IEEE rules: any NaN, or both signs of Inf, gives NaN;
// otherwise the sign of the Inf wins. An exact sum beyond the float64
// range rounds to ±Inf. Exactness holds for up to about 2^34 operands
// of magnitude >= 2^974 (see the binned package doc); smaller operands
// have no count limit.
func ExactSum(xs []float64) float64 { return binned.Sum(xs) }

// ParallelSum computes the sum of xs with the given algorithm on the
// deterministic chunked parallel engine (workers <= 0 selects
// GOMAXPROCS). The input is cut into fixed-size chunks, each chunk is
// reduced with the algorithm's mergeable operator, and the partials are
// combined in a fixed balanced tree — so the result is bitwise-identical
// for every worker count and equal to a single-threaded execution of the
// same plan.
func ParallelSum(alg Algorithm, xs []float64, workers int) float64 {
	return parallel.Sum(alg, xs, parallel.Config{Workers: workers})
}

// ProfileOf profiles xs in one streaming pass.
func ProfileOf(xs []float64) Profile { return selector.ProfileOf(xs) }

// CondNumber returns the exact sum condition number of xs
// (sum|x| / |sum x|; +Inf when the exact sum is zero).
func CondNumber(xs []float64) float64 { return metrics.CondNumber(xs) }

// DynRange returns the binary dynamic range of xs (largest minus
// smallest binary exponent over the nonzero values).
func DynRange(xs []float64) int { return metrics.DynRange(xs) }

// AggClient is a connection to a reduction-as-a-service aggregation
// server (see cmd/reprosumd). Deposits stream into named server-side
// binned accumulators; because deposits and merges are exact, the
// snapshot bits of every key are invariant under arrival order,
// connection count, and batch sizing. A client is not safe for
// concurrent use — give each goroutine its own.
type AggClient = aggsrv.Client

// AggSnapshot is a consistent point-in-time view of one server-side
// accumulator: the correctly rounded value, the deposit count, and the
// canonical reprostate v1 wire encoding of the state.
type AggSnapshot = aggsrv.Snapshot

// AggServerConfig parameterizes NewAggServer; the zero value is usable.
type AggServerConfig = aggsrv.Config

// AggServer is an embeddable reduction-as-a-service endpoint, the same
// engine cmd/reprosumd wraps.
type AggServer = aggsrv.Server

// DialAggregator connects to an aggregation server at addr.
func DialAggregator(addr string) (*AggClient, error) { return aggsrv.Dial(addr) }

// NewAggServer constructs an aggregation server; call its Serve or
// ListenAndServe to start accepting deposits.
func NewAggServer(cfg AggServerConfig) *AggServer { return aggsrv.New(cfg) }
