package repro

import (
	"math"
	"testing"

	"repro/internal/gen"
)

// TestWithLaneWidthBitwiseAcrossWorkers extends the runtime's
// worker-invariance guarantee to lane-parallel plans: a fixed
// (ChunkSize, LaneWidth) plan gives identical bits at every pool size,
// and the selection report is unaffected by the lane width.
func TestWithLaneWidthBitwiseAcrossWorkers(t *testing.T) {
	xs := gen.Spec{N: 40000, Cond: 1e8, DynRange: 24, Seed: 21}.Generate()
	for _, lw := range []int{2, 4, 8} {
		ref, refRep := New(1e-9, WithWorkers(1), WithChunkSize(1024), WithLaneWidth(lw)).Sum(xs)
		for _, w := range []int{2, 3, 8} {
			got, rep := New(1e-9, WithWorkers(w), WithChunkSize(1024), WithLaneWidth(lw)).Sum(xs)
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("lanes=%d: %d workers gave %x, 1 worker gave %x",
					lw, w, math.Float64bits(got), math.Float64bits(ref))
			}
			if rep.Algorithm != refRep.Algorithm {
				t.Errorf("lanes=%d: algorithm choice varied with workers: %v vs %v",
					lw, rep.Algorithm, refRep.Algorithm)
			}
		}
	}
}

// TestWithLaneWidthEnablesEngine confirms WithLaneWidth alone routes
// large sums through the engine (like WithWorkers/WithChunkSize do).
func TestWithLaneWidthEnablesEngine(t *testing.T) {
	rt := New(1e-9, WithLaneWidth(4))
	if !rt.useEngine {
		t.Fatal("WithLaneWidth did not enable the parallel engine")
	}
	if rt.par.LaneWidth != 4 {
		t.Fatalf("LaneWidth = %d, want 4", rt.par.LaneWidth)
	}
}

// TestWithLaneWidthRejectsInvalid: an unsupported lane width fails when
// the option is applied, with the engine's own message, so a small
// input (which never reaches the engine) cannot hide the error until
// the first multi-chunk input arrives.
func TestWithLaneWidthRejectsInvalid(t *testing.T) {
	const want = "parallel: invalid LaneWidth 3 (want 1, 2, 4, or 8)"
	for _, n := range []int{100, 1 << 20} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 1
		}
		got := func() (msg any) {
			defer func() { msg = recover() }()
			New(1e-9, WithLaneWidth(3)).Sum(xs)
			return nil
		}()
		if got != want {
			t.Errorf("n=%d: WithLaneWidth(3) panic = %v, want %q", n, got, want)
		}
	}
	for _, k := range []int{0, 1, 2, 4, 8} {
		New(1e-9, WithLaneWidth(k)) // must not panic
	}
}
