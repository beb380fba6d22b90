package kernel_test

import (
	"sync"
	"testing"

	"repro/internal/dd"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/reduce"
	"repro/internal/sum"
)

// benchData is the canonical 1M-element workload of the paper's
// experiments, generated once.
var benchData = sync.OnceValue(func() []float64 {
	return gen.Spec{N: 1 << 20, Cond: 1e4, DynRange: 16, Seed: 42}.Generate()
})

var (
	sinkF  float64
	sinkDD dd.DD
)

// The generic fold is reduce.LeftFold: one Leaf plus one Merge through
// the monoid interface per element, with no FoldSlice fast path, so the
// generic/kernel pairs below measure exactly the devirtualization win
// the kernels are for.

func BenchmarkFoldST1M(b *testing.B) {
	xs := benchData()
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = (sum.STMonoid{}).Finalize(reduce.LeftFold[float64](sum.STMonoid{}, xs))
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = kernel.ST(xs)
		}
	})
}

func BenchmarkFoldKahan1M(b *testing.B) {
	xs := benchData()
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = (sum.KahanMonoid{}).Finalize(reduce.LeftFold[sum.KState](sum.KahanMonoid{}, xs))
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF, _ = kernel.Kahan(xs)
		}
	})
}

func BenchmarkFoldNeumaier1M(b *testing.B) {
	xs := benchData()
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = (sum.NeumaierMonoid{}).Finalize(reduce.LeftFold[sum.NState](sum.NeumaierMonoid{}, xs))
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF, _ = kernel.Neumaier(xs)
		}
	})
}

func BenchmarkFoldCP1M(b *testing.B) {
	xs := benchData()
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDD = reduce.LeftFold[dd.DD](sum.CPMonoid{}, xs)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkDD = kernel.CP(xs)
		}
	})
}

func BenchmarkFoldPairwise1M(b *testing.B) {
	xs := benchData()
	b.Run("classic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = sum.Pairwise(xs)
		}
	})
}

// BenchmarkReduceFoldST1M measures the wired-through entry point: the
// public reduce.Fold, which now takes the FoldSlice fast path for the
// sum monoids.
func BenchmarkReduceFoldST1M(b *testing.B) {
	xs := benchData()
	for i := 0; i < b.N; i++ {
		sinkF = reduce.Fold[float64](sum.STMonoid{}, xs)
	}
}
