package parallel

import (
	"repro/internal/kernel"
	"repro/internal/sum"
	"repro/internal/superacc"
)

// Sum computes the sum of xs with the named algorithm on the parallel
// engine. For every algorithm the result is bitwise-identical across
// worker counts and equal to SeqSum with the same Config: both execute
// the same plan (fixed chunks, fixed intra-chunk fold, fixed balanced
// merge tree).
//
// Every algorithm but ST and PW runs Reduce over its registry operator,
// alg.Op(), whose chunk fold is the algorithm's devirtualized batch
// kernel. ST and PW chunks fold with kernel.ST, which starts from +0
// like sum.Standard — so an all -0 input sums to +0 — where the ST
// operator's fold starts from xs[0]. PW chunks fold like ST chunks: the
// engine's fixed merge tree is the pairwise part.
func Sum(alg sum.Algorithm, xs []float64, cfg Config) float64 {
	if plusZeroST(alg) {
		st, _ := MapReduce(len(xs), cfg, stChunk(xs), sum.STMonoid{}.Merge)
		return st
	}
	return Reduce(alg.Op(), xs, cfg)
}

// SeqSum executes the identical plan as Sum on a single goroutine — the
// bitwise oracle for the engine and the baseline for its benchmarks.
func SeqSum(alg sum.Algorithm, xs []float64, cfg Config) float64 {
	if plusZeroST(alg) {
		st, _ := MapReduceSeq(len(xs), cfg, stChunk(xs), sum.STMonoid{}.Merge)
		return st
	}
	return SeqReduce(alg.Op(), xs, cfg)
}

// plusZeroST reports whether alg's chunks fold with the +0-start
// kernel.ST instead of its operator.
func plusZeroST(alg sum.Algorithm) bool {
	return alg == sum.StandardAlg || alg == sum.PairwiseAlg
}

func stChunk(xs []float64) func(lo, hi int) float64 {
	return func(lo, hi int) float64 { return kernel.ST(xs[lo:hi]) }
}

// SumPR computes the prerounded sum with an explicit bin configuration
// (e.g. one tuned by selector.TunePR) on the parallel engine. PR's merge
// is exactly associative and commutative, so the result is additionally
// invariant to the chunk plan itself, not just the worker count.
func SumPR(prCfg sum.PRConfig, xs []float64, cfg Config) float64 {
	return Reduce(prCfg.Monoid(), xs, cfg)
}

// ExactSum computes the exact, correctly rounded sum of xs with sharded
// superaccumulators: one exact accumulator per chunk, merged exactly at
// the root. Because every operation is exact, the result is identical to
// superacc.Sum for any worker count and any chunk plan.
func ExactSum(xs []float64, cfg Config) float64 {
	st, ok := MapReduce(len(xs), cfg,
		func(lo, hi int) *superacc.Acc {
			a := superacc.New()
			kernel.Exact(a, xs[lo:hi])
			return a
		},
		func(a, b *superacc.Acc) *superacc.Acc {
			a.Merge(b)
			return a
		})
	if !ok {
		return 0
	}
	return st.Float64()
}
