package kernel_test

import (
	"math"
	"testing"

	"repro/internal/binned"
	"repro/internal/kernel"
	"repro/internal/sum"
	"repro/internal/superacc"
)

var sinkBN binned.State

// TestBinnedKernelEquivalenceAndAllocs pins the kernel contract: the
// fast and reference folds finalize bit-identical to the element-wise
// accumulator, and the fast path performs zero heap allocations.
func TestBinnedKernelEquivalenceAndAllocs(t *testing.T) {
	xs := benchData()[:65536]
	var ref binned.State
	for _, x := range xs {
		ref.Add(x)
	}
	want := math.Float64bits(ref.Finalize())
	st := kernel.Binned(xs)
	if got := math.Float64bits(st.Finalize()); got != want {
		t.Fatalf("kernel.Binned: %x != element-wise %x", got, want)
	}
	refSt := kernel.BinnedRef(xs)
	if got := math.Float64bits(refSt.Finalize()); got != want {
		t.Fatalf("kernel.BinnedRef: %x != element-wise %x", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sinkBN = kernel.Binned(xs)
		sinkF = sinkBN.Finalize()
	})
	if allocs != 0 {
		t.Fatalf("Binned+Finalize allocates %v per run, want 0", allocs)
	}
}

// BenchmarkBinnedSum1M is the headline artifact benchmark: the binned
// reproducible kernel over the canonical 1M-element workload — the
// two-level default and the reference per-element deposit loop it
// replaced. Both produce identical bits; only throughput varies (see
// TestBinnedKernelEquivalenceAndAllocs for the 0-alloc contract).
func BenchmarkBinnedSum1M(b *testing.B) {
	xs := benchData()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := kernel.Binned(xs)
			sinkF = st.Finalize()
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := kernel.BinnedRef(xs)
			sinkF = st.Finalize()
		}
	})
}

// BenchmarkBinnedFinalize isolates the Finalize-only cost — the
// superacc pass (superacc.AddLdexp for the scaled bins) over the ~66
// bins of a populated 1M-element state. It must stay far below 1% of
// the sum itself for the "Finalize off the hot path" framing to hold.
func BenchmarkBinnedFinalize(b *testing.B) {
	st := kernel.Binned(benchData())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = st.Finalize()
	}
}

// BenchmarkBinnedVsAlternatives1M frames the acceptance ratios directly:
// binned vs the full superaccumulator, vs the two-pass prerounded
// engine at its cheapest fold budget, and vs the non-reproducible ST
// kernel floor.
func BenchmarkBinnedVsAlternatives1M(b *testing.B) {
	xs := benchData()
	b.Run("binned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := kernel.Binned(xs)
			sinkF = st.Finalize()
		}
	})
	b.Run("superacc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = superacc.Sum(xs)
		}
	})
	b.Run("prtwopass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = sum.PreroundedTwoPass(xs, 2)
		}
	})
	b.Run("stkernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkF = kernel.ST(xs)
		}
	})
}
