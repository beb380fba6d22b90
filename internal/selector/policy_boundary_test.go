package selector

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/sum"
)

// Boundary audit for the CalibratedPolicy nearest-cell lookup,
// mirroring the cache-boundary audit of PR 6: the scan's extrapolation
// semantics at and beyond the table extremes are clamping — a profile
// outside the calibrated envelope resolves to the nearest edge cell,
// never to a phantom extrapolated value and never to "no neighbor" as
// long as one cell has finite coordinates. These tests pin that
// contract.

// edgeProfile generates a live profile roughly at (n, k, dr).
func edgeProfile(n int, k float64, dr int, seed uint64) Profile {
	return ProfileOf(gen.Spec{N: n, Cond: k, DynRange: dr, Seed: seed}.Generate())
}

// TestNearestClampsBelowSmallestN pins the low-n extreme: any profile
// smaller than the smallest calibrated size resolves to a smallest-size
// cell (same k/dr plane), including the single-element floor.
func TestNearestClampsBelowSmallestN(t *testing.T) {
	cp := syntheticTable()
	for _, n := range []int{2, 16, 100, 1023} {
		p := edgeProfile(n, 1, 0, 1000+uint64(n))
		cell, ok := cp.nearest(p)
		if !ok {
			t.Fatalf("n=%d: no neighbor from a populated table", n)
		}
		if cell.Spec.N != 1<<10 {
			t.Errorf("n=%d resolved to calibrated n=%d, want the smallest calibrated size %d", n, cell.Spec.N, 1<<10)
		}
	}
	p := ProfileOf([]float64{2.5})
	if cell, ok := cp.nearest(p); !ok || cell.Spec.N != 1<<10 {
		t.Errorf("single-element profile resolved to (%v, ok=%v), want smallest-n cell", cell.Spec, ok)
	}
}

// TestNearestClampsAboveLargestN pins the high-n extreme symmetrically.
func TestNearestClampsAboveLargestN(t *testing.T) {
	cp := syntheticTable()
	for _, n := range []int{1 << 19, 1 << 22} {
		p := edgeProfile(n, 1, 0, 2000+uint64(n))
		cell, ok := cp.nearest(p)
		if !ok {
			t.Fatalf("n=%d: no neighbor from a populated table", n)
		}
		if cell.Spec.N != 1<<18 {
			t.Errorf("n=%d resolved to calibrated n=%d, want the largest calibrated size %d", n, cell.Spec.N, 1<<18)
		}
	}
}

// TestNearestClampsConditionAxis pins the k extremes: conditions past
// the last calibrated decade resolve to the highest-k column, and both
// a condition past the 1e17 saturation point and a NaN condition
// estimate (overflowed profile) behave identically to the saturated
// column rather than poisoning the distance metric.
func TestNearestClampsConditionAxis(t *testing.T) {
	cp := syntheticTable()
	for _, k := range []float64{1e10, 1e16, 1e30} {
		p := edgeProfile(1<<14, k, 8, 3000)
		cell, ok := cp.nearest(p)
		if !ok {
			t.Fatalf("k=%.3g: no neighbor", k)
		}
		if cell.MeasuredK != 1e8 {
			t.Errorf("k=%.3g resolved to calibrated k=%.3g, want the highest calibrated decade 1e8", k, cell.MeasuredK)
		}
		if cell.Spec.N != 1<<14 {
			t.Errorf("k=%.3g wandered to n=%d, want the profile's own size plane", k, cell.Spec.N)
		}
	}

	// A poisoned profile (Inf sum) has Cond = Inf and clamps the same way.
	xs := gen.Spec{N: 1 << 14, Cond: 1, DynRange: 8, Seed: 3100}.Generate()
	xs[0] = math.Inf(1)
	p := ProfileOf(xs)
	if cell, ok := cp.nearest(p); !ok || cell.MeasuredK != 1e8 {
		t.Errorf("non-finite profile resolved to (k=%.3g, ok=%v), want saturated k column", cell.MeasuredK, ok)
	}
}

// TestNearestClampsDynRangeAxis pins the dr extreme: dynamic ranges
// beyond the calibrated span resolve to the widest calibrated plane.
func TestNearestClampsDynRangeAxis(t *testing.T) {
	cp := syntheticTable()
	p := edgeProfile(1<<14, 1e4, 60, 4000)
	cell, ok := cp.nearest(p)
	if !ok {
		t.Fatal("no neighbor")
	}
	if cell.MeasuredDR != 32 {
		t.Errorf("dr=60 resolved to calibrated dr=%d, want the widest calibrated span 32", cell.MeasuredDR)
	}
}

// TestNearestDegenerateTable pins the no-neighbor paths: an empty table
// reports no neighbor (Select then falls back to the heuristic), and a
// table whose every cell has NaN coordinates on a non-clamped axis does
// the same instead of returning an arbitrary cell.
func TestNearestDegenerateTable(t *testing.T) {
	p := edgeProfile(1024, 1e4, 8, 5000)

	empty := NewCalibratedPolicy(nil, 4)
	if _, ok := empty.nearest(p); ok {
		t.Error("empty table produced a neighbor")
	}
	wantAlg, _ := NewHeuristicPolicy().Select(p, Requirement{Tolerance: 1e-12})
	if alg, _ := empty.Select(p, Requirement{Tolerance: 1e-12}); alg != wantAlg {
		t.Errorf("empty table selected %v, want heuristic fallback %v", alg, wantAlg)
	}

	poisoned := NewCalibratedPolicy([]grid.CellResult{{
		Spec:      grid.CellSpec{N: 0, Cond: 1, DynRange: 0}, // log2(0) = -Inf: NaN distance
		MeasuredK: 1,
		RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: 1e-16},
	}}, 4)
	if _, ok := poisoned.nearest(p); ok {
		t.Error("table with NaN-coordinate cells produced a neighbor")
	}
}

// TestNearestExactOnGridPoints is the interior control for the clamp
// tests: profiles at calibrated coordinates resolve to their own cell
// on every axis simultaneously.
func TestNearestExactOnGridPoints(t *testing.T) {
	cp := syntheticTable()
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		for _, ki := range []int{0, 4, 8} {
			for _, dr := range []int{0, 16, 32} {
				k := math.Pow(10, float64(ki))
				p := edgeProfile(n, k, dr, 6000+uint64(n+ki+dr))
				cell, ok := cp.nearest(p)
				if !ok {
					t.Fatalf("n=%d k=%.3g dr=%d: no neighbor", n, k, dr)
				}
				if cell.Spec.N != n || cell.MeasuredK != k {
					t.Errorf("profile at grid point (n=%d k=%.3g dr=%d) resolved to (n=%d k=%.3g dr=%d)",
						n, k, dr, cell.Spec.N, cell.MeasuredK, cell.MeasuredDR)
				}
			}
		}
	}
}
