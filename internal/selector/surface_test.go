package selector

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/sum"
)

// fig12Thresholds mirrors experiments.Fig12Thresholds (loosest to
// tightest) without importing the experiments package.
var fig12Thresholds = []float64{5e-13, 3e-13, 2.5e-13, 1.5e-13, 5e-14}

// auditCalibration runs one small real sweep shared by the agreement
// tests (the fig12 audit fixture).
func auditCalibration(t *testing.T) *CalibratedPolicy {
	t.Helper()
	return Calibrate(CalibrationConfig{
		Ns:         []int{256, 1024, 4096},
		Ks:         []float64{1, 1e2, 1e4, 1e6, 1e8},
		DRs:        []int{0, 8, 16},
		Trials:     12,
		Seed:       7,
		Algorithms: sum.SelectionLadder,
	})
}

// auditProfiles spans the fig12 audit grid as live profiles.
func auditProfiles() []Profile {
	var profs []Profile
	seed := uint64(400)
	for _, n := range []int{256, 512, 1024, 4096} {
		for ki := 0; ki <= 8; ki += 2 {
			for _, dr := range []int{0, 8, 16} {
				seed++
				xs := gen.Spec{N: n, Cond: math.Pow(10, float64(ki)), DynRange: dr, Seed: seed}.Generate()
				profs = append(profs, ProfileOf(xs))
			}
		}
	}
	return profs
}

// TestSurfaceAgreesWithScan fits a surface from a real calibration sweep
// and audits it against the nearest-neighbor scan across the fig12 grid
// of profiles and thresholds: picks must agree on at least 95% of the
// grid, and a surface pick must never violate the tolerance according
// to the scan's own measured variability for that profile.
func TestSurfaceAgreesWithScan(t *testing.T) {
	scan := auditCalibration(t)
	surface := FitSurface(scan.Cells(), nil, 4)
	if surface.Empty() {
		t.Fatal("surface empty after real calibration sweep")
	}
	profs := auditProfiles()
	total, agree := 0, 0
	for _, tol := range fig12Thresholds {
		req := Requirement{Tolerance: tol}
		for _, p := range profs {
			scanAlg, _ := scan.Select(p, req)
			surfAlg, _ := surface.Select(p, req)
			total++
			if scanAlg == surfAlg {
				agree++
			}
			// Tolerance audit: judge the surface's pick by the scan's
			// measured variability at this profile's nearest cell.
			cell, ok := scan.nearest(p)
			if !ok {
				continue
			}
			if rel, measured := cell.RelStdDev[surfAlg]; measured && rel*4 > tol {
				t.Errorf("tolerance violation: surface picked %v (measured rel %.3g, safety-scaled %.3g) at tol %.3g for n=%d k=%.3g dr=%d",
					surfAlg, rel, rel*4, tol, p.N, p.Cond(), p.DynRange())
			}
		}
	}
	if pct := float64(agree) / float64(total) * 100; pct < 95 {
		t.Errorf("surface agrees with scan on %d/%d picks (%.1f%%), want >= 95%%", agree, total, pct)
	}
}

// TestSurfaceBoundaryExtremes pins extrapolation: at and beyond every
// table extreme — n below the smallest and above the largest calibrated
// size, condition numbers past the last calibrated decade and past the
// clamp ceiling, dynamic ranges past the calibrated span — the surface
// must resolve exactly like the scan (both clamp to the edge of the
// calibrated envelope).
func TestSurfaceBoundaryExtremes(t *testing.T) {
	scan := syntheticTable()
	surface := FitSurface(scan.Cells(), nil, 4)
	specs := []gen.Spec{
		{N: 4, Cond: 1, DynRange: 0, Seed: 500},           // far below smallest n
		{N: 1 << 22, Cond: 1e4, DynRange: 8, Seed: 501},   // above largest n
		{N: 1 << 10, Cond: 1e12, DynRange: 8, Seed: 502},  // k past last decade
		{N: 1 << 14, Cond: 1e30, DynRange: 16, Seed: 503}, // k past the 1e17 clamp
		{N: 1 << 14, Cond: 1e4, DynRange: 48, Seed: 504},  // dr past calibrated span
		{N: 1 << 22, Cond: 1e30, DynRange: 48, Seed: 505}, // every axis beyond
	}
	for _, spec := range specs {
		p := ProfileOf(spec.Generate())
		for _, tol := range []float64{1e-6, 1e-9, 1e-12, 0} {
			req := Requirement{Tolerance: tol}
			scanAlg, _ := scan.Select(p, req)
			surfAlg, _ := surface.Select(p, req)
			if scanAlg != surfAlg {
				t.Errorf("spec %+v tol %.3g: surface picked %v, scan %v", spec, tol, surfAlg, scanAlg)
			}
		}
	}
	// A single-value profile exercises the n floor (bits.Len64 clamp).
	p := ProfileOf([]float64{1.5})
	sAlg, _ := scan.Select(p, Requirement{Tolerance: 1e-12})
	fAlg, _ := surface.Select(p, Requirement{Tolerance: 1e-12})
	if sAlg != fAlg {
		t.Errorf("n=1 profile: surface picked %v, scan %v", fAlg, sAlg)
	}
}

// TestSurfaceDegenerateInput exercises the failed-calibration paths: a
// sweep where an engine produced NaN, where whole algorithms are
// missing, or where nothing usable was measured at all must yield a
// surface that still serves — escalating past the broken columns to a
// reproducible rung, or falling back to the heuristic when empty.
func TestSurfaceDegenerateInput(t *testing.T) {
	p := ProfileOf(gen.Spec{N: 1024, Cond: 1e6, DynRange: 8, Seed: 600}.Generate())
	req := Requirement{Tolerance: 1e-12}

	t.Run("empty", func(t *testing.T) {
		surface := FitSurface(nil, nil, 4)
		if !surface.Empty() {
			t.Fatal("surface from no cells should be empty")
		}
		wantAlg, wantPred := NewHeuristicPolicy().Select(p, req)
		alg, pred := surface.Select(p, req)
		if alg != wantAlg || pred != wantPred {
			t.Errorf("empty surface selected %v/%g, heuristic %v/%g", alg, pred, wantAlg, wantPred)
		}
	})

	t.Run("nil policy", func(t *testing.T) {
		var surface *CalibratedSurfacePolicy
		wantAlg, _ := NewHeuristicPolicy().Select(p, req)
		alg, _ := surface.Select(p, req)
		if alg != wantAlg {
			t.Errorf("nil surface selected %v, heuristic %v", alg, wantAlg)
		}
	})

	t.Run("all NaN measurements", func(t *testing.T) {
		cells := []grid.CellResult{{
			Spec: grid.CellSpec{N: 1024, Cond: 1e6, DynRange: 8}, MeasuredK: 1e6, MeasuredDR: 8,
			RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: math.NaN(), sum.KahanAlg: math.NaN()},
		}}
		surface := FitSurface(cells, nil, 4)
		alg, pred := surface.Select(p, req)
		if alg != sum.CheapestReproducible() || pred != 0 {
			t.Errorf("all-NaN surface selected %v/%g, want ladder fallback %v/0", alg, pred, sum.CheapestReproducible())
		}
	})

	t.Run("partial engine failure", func(t *testing.T) {
		// ST failed on the high-k cell (NaN), K measured fine: at high k
		// the surface must skip ST's corrupt column yet keep serving K.
		cells := []grid.CellResult{
			{
				Spec: grid.CellSpec{N: 1024, Cond: 1, DynRange: 8}, MeasuredK: 1, MeasuredDR: 8,
				RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: 1e-16, sum.KahanAlg: 1e-18},
			},
			{
				Spec: grid.CellSpec{N: 1024, Cond: 1e6, DynRange: 8}, MeasuredK: 1e6, MeasuredDR: 8,
				RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: math.NaN(), sum.KahanAlg: 1e-12},
			},
		}
		surface := FitSurface(cells, nil, 4)
		alg, _ := surface.Select(p, Requirement{Tolerance: 1e-10})
		if alg != sum.KahanAlg {
			t.Errorf("partial surface selected %v, want K (ST's high-k knot is corrupt, clamp keeps ST's k=1 value only below)", alg)
		}
	})

	t.Run("non-finite cost timings", func(t *testing.T) {
		cells := syntheticTable().Cells()
		costs := []CostSample{
			{Alg: sum.StandardAlg, N: 1024, NsPerOp: math.Inf(1)},
			{Alg: sum.KahanAlg, N: 1024, NsPerOp: math.NaN()},
			{Alg: sum.CompositeAlg, N: 1024, NsPerOp: -3},
		}
		clean := FitSurface(cells, nil, 4)
		dirty := FitSurface(cells, costs, 4)
		for _, n := range []int64{256, 1024, 1 << 20} {
			co, do := clean.WalkOrder(n), dirty.WalkOrder(n)
			for i := range co {
				if co[i] != do[i] {
					t.Fatalf("n=%d: unusable cost samples changed the walk order: %v vs %v", n, do, co)
				}
			}
		}
	})
}

// TestSurfaceToleranceZeroRequiresReproducible pins the bitwise
// contract against the measured-cost walk order: a finite sweep can
// measure CP's spread as exactly 0 on benign cells, and host timings
// (e.g. under the race detector's instrumentation) can put CP ahead of
// BN in the walk — but tolerance 0 demands a construction-level
// guarantee, so the surface must still resolve to a reproducible rung.
func TestSurfaceToleranceZeroRequiresReproducible(t *testing.T) {
	cells := []grid.CellResult{{
		Spec: grid.CellSpec{N: 1024, Cond: 1, DynRange: 8}, MeasuredK: 1, MeasuredDR: 8,
		RelStdDev: map[sum.Algorithm]float64{
			sum.CompositeAlg: 0, // measured zero, not a bitwise guarantee
			sum.BinnedAlg:    0,
		},
	}}
	costs := []CostSample{
		{Alg: sum.CompositeAlg, N: 1024, Workers: 0, NsPerOp: 50},
		{Alg: sum.BinnedAlg, N: 1024, Workers: 0, NsPerOp: 80},
	}
	surface := FitSurface(cells, costs, 4)
	if order := surface.WalkOrder(1024); len(order) < 2 || order[0] != sum.CompositeAlg {
		t.Fatalf("walk order %v, want CP first (measured cheaper) for this pin to bite", order)
	}
	p := ProfileOf(gen.Spec{N: 1024, Cond: 1, DynRange: 8, Seed: 800}.Generate())
	alg, _ := surface.Select(p, Requirement{Tolerance: 0})
	if !alg.Reproducible() {
		t.Errorf("tolerance 0 selected %v, want a reproducible algorithm", alg)
	}
	// A nonzero tolerance keeps the measured order: CP qualifies and wins.
	if alg, _ := surface.Select(p, Requirement{Tolerance: 1e-15}); alg != sum.CompositeAlg {
		t.Errorf("tolerance 1e-15 selected %v, want CP (measured cheapest, qualifies)", alg)
	}
}

// TestSurfaceCostOrderRefit verifies measured costs re-order the ladder
// walk: when a nominally costlier algorithm measures cheaper on this
// host, the surface walks it first (and picks it when both qualify),
// while size buckets without samples inherit the nearest measured
// bucket.
func TestSurfaceCostOrderRefit(t *testing.T) {
	cells := syntheticTable().Cells()
	costs := []CostSample{
		{Alg: sum.StandardAlg, N: 1 << 10, Workers: 0, NsPerOp: 100},
		{Alg: sum.KahanAlg, N: 1 << 10, Workers: 0, NsPerOp: 40},
	}
	surface := FitSurface(cells, costs, 4)

	order := surface.WalkOrder(1 << 10)
	if len(order) < 2 || order[0] != sum.KahanAlg || order[1] != sum.StandardAlg {
		t.Fatalf("walk order %v, want K before ST (K measured cheaper)", order)
	}
	// The measured order must inherit into unmeasured size buckets.
	far := surface.WalkOrder(1 << 18)
	if far[0] != sum.KahanAlg {
		t.Errorf("unmeasured bucket walk order %v, want inherited K-first", far)
	}

	// At a tolerance both ST and K satisfy, the re-ordered walk picks K.
	p := ProfileOf(gen.Spec{N: 1 << 10, Cond: 1, DynRange: 8, Seed: 700}.Generate())
	alg, _ := surface.Select(p, Requirement{Tolerance: 1e-9})
	if alg != sum.KahanAlg {
		t.Errorf("selected %v, want K (cheapest by measurement, tolerance permits both)", alg)
	}
	// The unmodified surface keeps the static CostRank walk: ST first.
	static := FitSurface(cells, nil, 4)
	if alg, _ := static.Select(p, Requirement{Tolerance: 1e-9}); alg != sum.StandardAlg {
		t.Errorf("static-order surface selected %v, want ST", alg)
	}
}

// TestSurfaceSelectAllocs pins the zero-allocation serve path.
func TestSurfaceSelectAllocs(t *testing.T) {
	surface := FitSurface(syntheticTable().Cells(), nil, 4)
	p := ProfileOf(gen.Spec{N: 100000, Cond: 1e8, DynRange: 24, Seed: 91}.Generate())
	req := Requirement{Tolerance: 1e-12}
	if allocs := testing.AllocsPerRun(100, func() {
		surface.Select(p, req)
	}); allocs != 0 {
		t.Errorf("surface Select allocates %v per op, want 0", allocs)
	}
}

// TestSurfaceCacheHitEqualsMiss composes the surface with the decision
// cache: the cached decision must equal the surface's direct answer for
// every profile (the hit==miss soundness the cache guarantees requires
// the policy to be constant within a quantized bucket, which the
// surface is by construction).
func TestSurfaceCacheHitEqualsMiss(t *testing.T) {
	surface := FitSurface(syntheticTable().Cells(), nil, 4)
	seed := uint64(800)
	for _, n := range []int{512, 4096, 100000} {
		for _, k := range []float64{1, 1e4, 1e8, 1e12} {
			for _, dr := range []int{0, 16, 40} {
				seed++
				p := ProfileOf(gen.Spec{N: n, Cond: k, DynRange: dr, Seed: seed}.Generate())

				miss := New(1e-12)
				miss.Policy = surface

				cached := New(1e-12)
				cached.Policy = surface
				cached.Cache = NewDecisionCache(CacheConfig{})
				cached.Decide(p) // populate
				hit := cached.Decide(p)

				if want := miss.Decide(p); hit.Alg != want.Alg {
					t.Errorf("n=%d k=%.3g dr=%d: cache hit picked %v, direct surface %v", n, k, dr, hit.Alg, want.Alg)
				}
			}
		}
	}
}
