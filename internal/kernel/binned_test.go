package kernel_test

import (
	"fmt"
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
	var st binned.State
	st.AddSlice(xs)
	if got := math.Float64bits(st.Finalize()); got != want {
		t.Fatalf("AddSlice: %x != element-wise %x", got, want)
	}
	refSt := kernel.BinnedRef(xs)
	if got := math.Float64bits(refSt.Finalize()); got != want {
		t.Fatalf("kernel.BinnedRef: %x != element-wise %x", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sinkBN = binned.State{}
		sinkBN.AddSlice(xs)
		sinkF = sinkBN.Finalize()
	})
	if allocs != 0 {
		t.Fatalf("AddSlice+Finalize allocates %v per run, want 0", allocs)
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
			var st binned.State
			st.AddSlice(xs)
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

// BenchmarkBinnedFinalize isolates the Finalize-only cost on the state
// of the canonical 1M-element workload: the rounding of its live bin
// window. It must stay far below 1% of the sum itself for the
// "Finalize off the hot path" framing to hold.
func BenchmarkBinnedFinalize(b *testing.B) {
	var st binned.State
	st.AddSlice(benchData())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = st.Finalize()
	}
}

// windowSnapshot is a state whose live window is w bins wide: 2, 4
// and 6 bins are what real data leaves (2–6 nonzero bins for n from 16
// to 65536 at dynamic range up to 256), 66 is every bin of the float64
// range, the scaled top bins included. It holds mixed-sign counts of up
// to 2^31 quanta per bin, the most a renormalized bin carries; sign
// flips every count.
func windowSnapshot(w int, sign float64) binned.Snapshot {
	lo := 32 - w/2
	if w == 66 {
		lo = 0
	}
	var snap binned.Snapshot
	m := int64(0x5bd1e995)
	for j := lo; j < lo+w; j++ {
		m = (m*0x41c64e6d + 12345) % (1 << 31)
		q := 32*j - 1074
		if j >= 64 {
			q -= 512
		}
		v := sign * math.Ldexp(float64(m+1), q)
		if j%3 == 1 {
			v = -v
		}
		snap.Bins[j+2] = v
	}
	return snap
}

// restoreWindow restores windowSnapshot(w, sign).
func restoreWindow(b *testing.B, w int, sign float64) binned.State {
	st, err := binned.Restore(windowSnapshot(w, sign))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkBinnedFinalizeWindow times Finalize against the width of
// the live bin window (see windowSnapshot).
func BenchmarkBinnedFinalizeWindow(b *testing.B) {
	for _, w := range []int{2, 4, 6, 66} {
		st := restoreWindow(b, w, 1)
		b.Run(fmt.Sprintf("bins=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = st.Finalize()
			}
		})
	}
}

// BenchmarkBinnedMerge times one Merge, the collectives' per-message
// combine, against the width of the merged state's live window (see
// windowSnapshot). The accumulator takes the state and its negation in
// turn, so its bins stay bounded over any b.N.
func BenchmarkBinnedMerge(b *testing.B) {
	for _, w := range []int{2, 6, 66} {
		pos, neg := restoreWindow(b, w, 1), restoreWindow(b, w, -1)
		b.Run(fmt.Sprintf("bins=%d", w), func(b *testing.B) {
			var acc binned.State
			for i := 0; i < b.N; i++ {
				if i&1 == 0 {
					acc.Merge(&pos)
				} else {
					acc.Merge(&neg)
				}
			}
			sinkBN = acc
		})
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
			var st binned.State
			st.AddSlice(xs)
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
