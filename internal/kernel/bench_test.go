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
// the kernels are for; the lane variants additionally measure the ILP
// win of breaking the serial dependency chain.

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
	for _, k := range []int{2, 4, 8} {
		b.Run("lane"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = kernel.LaneST(xs, k)
			}
		})
	}
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
	for _, k := range []int{2, 4, 8} {
		b.Run("lane"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF, _ = kernel.LaneKahan(xs, k)
			}
		})
	}
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
	for _, k := range []int{2, 4, 8} {
		b.Run("lane"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF, _ = kernel.LaneNeumaier(xs, k)
			}
		})
	}
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
	for _, k := range []int{2, 4, 8} {
		b.Run("lane"+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = kernel.LanePairwise(xs, k)
			}
		})
	}
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
