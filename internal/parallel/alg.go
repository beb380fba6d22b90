package parallel

import (
	"repro/internal/binned"
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
// The chunk folds are the devirtualized reference-order kernels of
// internal/kernel, bit-identical to the algorithms' monoid folds
// (verified by the kernel and package tests); CP chunks run the monoid
// fold kernel directly because dd.AddFloat64 and dd.Add are not
// guaranteed to round identically at the last bit. PW chunks fold like
// ST chunks: the engine's fixed merge tree is the pairwise part.
func Sum(alg sum.Algorithm, xs []float64, cfg Config) float64 {
	return algSum(alg, xs, cfg, false)
}

// SeqSum executes the identical plan as Sum on a single goroutine — the
// bitwise oracle for the engine and the baseline for its benchmarks.
func SeqSum(alg sum.Algorithm, xs []float64, cfg Config) float64 {
	return algSum(alg, xs, cfg, true)
}

func algSum(alg sum.Algorithm, xs []float64, cfg Config, seq bool) float64 {
	switch alg {
	case sum.StandardAlg, sum.PairwiseAlg:
		st, ok := mapReduce(len(xs), cfg, seq,
			func(lo, hi int) float64 { return kernel.ST(xs[lo:hi]) },
			sum.STMonoid{}.Merge)
		if !ok {
			return 0
		}
		return st
	case sum.KahanAlg:
		st, ok := mapReduce(len(xs), cfg, seq,
			func(lo, hi int) sum.KState {
				s, c := kernel.Kahan(xs[lo:hi])
				return sum.KState{S: s, C: c}
			},
			sum.KahanMonoid{}.Merge)
		if !ok {
			return 0
		}
		return sum.KahanMonoid{}.Finalize(st)
	case sum.NeumaierAlg:
		st, ok := mapReduce(len(xs), cfg, seq,
			func(lo, hi int) sum.NState {
				s, c := kernel.Neumaier(xs[lo:hi])
				return sum.NState{S: s, C: c}
			},
			sum.NeumaierMonoid{}.Merge)
		if !ok {
			return 0
		}
		return sum.NeumaierMonoid{}.Finalize(st)
	case sum.CompositeAlg:
		if seq {
			return SeqReduce(sum.CPMonoid{}, xs, cfg)
		}
		return Reduce(sum.CPMonoid{}, xs, cfg)
	case sum.PreroundedAlg:
		return prSum(sum.DefaultPRConfig(), xs, cfg, seq)
	case sum.BinnedAlg:
		// Binned chunks fold with the batch kernel; deposits and merges
		// are exact, so the result is invariant to the chunk plan itself,
		// like PR.
		m := sum.BNMonoid{}
		st, ok := mapReduce(len(xs), cfg, seq,
			func(lo, hi int) binned.State { return kernel.Binned(xs[lo:hi]) },
			m.Merge)
		if !ok {
			return 0
		}
		return m.Finalize(st)
	}
	panic("parallel: invalid algorithm " + alg.String())
}

// SumPR computes the prerounded sum with an explicit bin configuration
// (e.g. one tuned by selector.TunePR) on the parallel engine. PR's merge
// is exactly associative and commutative, so the result is additionally
// invariant to the chunk plan itself, not just the worker count.
func SumPR(prCfg sum.PRConfig, xs []float64, cfg Config) float64 {
	return prSum(prCfg, xs, cfg, false)
}

func prSum(prCfg sum.PRConfig, xs []float64, cfg Config, seq bool) float64 {
	m := prCfg.Monoid()
	st, ok := mapReduce(len(xs), cfg, seq,
		func(lo, hi int) sum.PRState { return m.FoldSlice(xs[lo:hi]) },
		m.Merge)
	if !ok {
		return 0
	}
	return m.Finalize(st)
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

func mapReduce[S any](n int, cfg Config, seq bool, chunk func(lo, hi int) S, merge func(a, b S) S) (S, bool) {
	if seq {
		return MapReduceSeq(n, cfg, chunk, merge)
	}
	return MapReduce(n, cfg, chunk, merge)
}
