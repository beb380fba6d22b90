package selector

import (
	"math"
	"math/bits"
	"testing"
)

// Boundary-value audit of the DecisionCache quantization (issue 6,
// satellite 2): exact quarter-decade condition edges, exact 4-octave
// dynamic-range edges, exact power-of-two size edges, the >1e17
// sentinel, and tolerances sitting exactly on decade edges. The
// load-bearing invariants are (a) hit decision == miss decision and
// (b) the bucket's canonical representative dominates every profile
// the bucket admits, so memoized decisions are never cheaper than the
// exact-profile policy call.

// profileWithCond builds a unit-scale profile whose computed Cond is
// exactly 1/s for the given Sum component s (SumAbs = 1), mirroring
// the representative's construction.
func profileWithCond(n int64, s float64, minExp int) Profile {
	return Profile{
		N:          n,
		HasNonzero: true,
		MaxExp:     0,
		MinExp:     minExp,
		Pos:        n,
		Sum:        CSum{S: s},
		SumAbs:     CSum{S: 1},
	}
}

// TestCondBucketBoundaries pins the quarter-decade bucket mapping at
// its exact edges, including the 1e17 sentinel.
func TestCondBucketBoundaries(t *testing.T) {
	cases := []struct {
		k    float64
		want int16
	}{
		{0, 0},   // clamped below 1
		{0.5, 0}, // clamped below 1
		{1, 0},   // exact lower edge
		{math.Nextafter(1, 2), 1},
		{math.Pow(10, 0.25), 1}, // exact quarter-decade edge
		{math.Pow(10, 0.5), 2},  // exact half-decade edge
		{10, 4},                 // exact decade edge
		// One ulp above the edge STILL buckets at the edge: Log10
		// rounds 1+7.7e-17 back to 1.0. Buckets therefore admit
		// condition numbers slightly beyond their ideal upper edge —
		// the slack the representative's supremum walk must (and does)
		// cover; see TestRepresentativeDominatesCondBucket.
		{math.Nextafter(10, 20), 4},
		{10.00000000001, 5},
		{1e8, 32},
		{1e17, 68}, // exact saturation edge stays in the last finite bucket
		{math.Nextafter(1e17, math.Inf(1)), kInfBucket},
		{math.Inf(1), kInfBucket},
		{math.NaN(), kInfBucket},
	}
	for _, c := range cases {
		if got := condBucket(c.k); got != c.want {
			t.Errorf("condBucket(%g) = %d, want %d", c.k, got, c.want)
		}
	}
}

// TestQuantizeDynRangeBoundaries: dynamic ranges exactly on 4-octave
// edges bucket with their edge, and the representative always spans at
// least the profiled range.
func TestQuantizeDynRangeBoundaries(t *testing.T) {
	cases := []struct {
		dr   int
		want int16
	}{
		{0, 0}, {1, 1}, {3, 1},
		{4, 1}, // exact 4-octave edge: still the first bucket
		{5, 2}, {7, 2},
		{8, 2}, // next exact edge
		{9, 3},
	}
	for _, c := range cases {
		p := profileWithCond(100, 1, -c.dr)
		key := quantize(p, Requirement{Tolerance: 1e-12})
		if key.drq != c.want {
			t.Errorf("dr=%d: drq = %d, want %d", c.dr, key.drq, c.want)
		}
		rep, _ := representative(key)
		if rep.DynRange() < p.DynRange() {
			t.Errorf("dr=%d: representative range %d < profile range %d",
				c.dr, rep.DynRange(), p.DynRange())
		}
	}
}

// TestQuantizeSizeBoundaries: counts exactly at powers of two bucket
// conservatively — the representative's n is never below the
// profile's, including the MaxInt64 extreme.
func TestQuantizeSizeBoundaries(t *testing.T) {
	var ns []int64
	for _, m := range []uint{1, 2, 10, 20, 40, 62} {
		ns = append(ns, int64(1)<<m-1, int64(1)<<m, int64(1)<<m+1)
	}
	ns = append(ns, 0, 1, math.MaxInt64-1, math.MaxInt64)
	for _, n := range ns {
		p := profileWithCond(n, 1e-4, -8)
		key := quantize(p, Requirement{Tolerance: 1e-12})
		if want := int16(bits.Len64(uint64(n))); key.nq != want {
			t.Errorf("n=%d: nq = %d, want %d", n, key.nq, want)
		}
		rep, _ := representative(key)
		if rep.N < n {
			t.Errorf("n=%d: representative n=%d is smaller (not conservative)", n, rep.N)
		}
	}
}

// TestRepresentativeDominatesCondBucket is the regression test for the
// quarter-decade edge bug: the representative's computed condition
// number must be at least the largest computed condition number its
// bucket admits. Before the ulp-walk fix, double rounding in 1/(1/k')
// left the representative up to ~50 ulps short right at the edges.
func TestRepresentativeDominatesCondBucket(t *testing.T) {
	for kq := int16(0); kq <= 68; kq++ {
		key := cacheKey{tol: math.Float64bits(1e-12), kq: kq, nq: 12, drq: 2}
		rep, _ := representative(key)
		repCond := rep.Cond()
		if got := condBucket(repCond); got != kq {
			t.Errorf("kq=%d: representative re-buckets to %d", kq, got)
		}
		// Walk to the bucket's computed-Cond supremum independently.
		s := rep.Sum.S
		for {
			next := math.Nextafter(s, 0)
			if next == 0 || condBucket(1/next) > kq {
				break
			}
			s = next
		}
		if maxCond := profileWithCond(1000, s, -8).Cond(); repCond < maxCond {
			t.Errorf("kq=%d: representative Cond %v < in-bucket max %v",
				kq, repCond, maxCond)
		}
	}
	// Sentinel bucket: Cond must be exactly +Inf, dominating everything.
	rep, _ := representative(cacheKey{kq: kInfBucket, nq: 12, drq: 2})
	if !math.IsInf(rep.Cond(), 1) {
		t.Errorf("sentinel representative Cond = %v, want +Inf", rep.Cond())
	}
}

// TestRepresentativeSelfConsistent: re-quantizing a bucket's
// representative lands back in the same bucket (for occupied buckets,
// nq >= 1 — an empty-profile bucket's representative holds one value).
func TestRepresentativeSelfConsistent(t *testing.T) {
	for _, kq := range []int16{0, 1, 2, 4, 17, 40, 68, kInfBucket} {
		for _, nq := range []int16{1, 12, 40, 63} {
			for _, drq := range []int16{0, 1, 8} {
				key := cacheKey{tol: math.Float64bits(2.5e-13), kq: kq, nq: nq, drq: drq}
				rep, req := representative(key)
				if got := quantize(rep, req); got != key {
					t.Errorf("key %+v re-quantizes to %+v", key, got)
				}
			}
		}
	}
}

// TestToleranceExactKeying: tolerance is keyed by its bits — decade
// edges and neighbors one ulp apart are distinct buckets, so no
// requirement ever sees a decision memoized for a different one.
func TestToleranceExactKeying(t *testing.T) {
	p := profileWithCond(4096, 1e-5, -16)
	tol := 1e-13 // a fig12-style decade edge
	k1 := quantize(p, Requirement{Tolerance: tol})
	k2 := quantize(p, Requirement{Tolerance: math.Nextafter(tol, 1)})
	k3 := quantize(p, Requirement{Tolerance: tol})
	if k1 == k2 {
		t.Errorf("tolerances one ulp apart share a bucket: %+v", k1)
	}
	if k1 != k3 {
		t.Errorf("equal tolerances got distinct buckets: %+v vs %+v", k1, k3)
	}
}

// boundaryProfiles spans the audit surface: condition numbers exactly
// on quarter-decade edges (constructed through the same arithmetic the
// representative uses), dynamic ranges on 4-octave edges, counts on
// power-of-two edges.
func boundaryProfiles() []Profile {
	var ps []Profile
	for _, kq := range []int16{0, 1, 4, 20, 68} {
		s := 0.0
		if kq != kInfBucket {
			s = 1 / math.Pow(10, float64(kq)/4)
		}
		for _, n := range []int64{1, 2, 4095, 4096, 4097, 1 << 20} {
			for _, dr := range []int{0, 4, 5, 8} {
				ps = append(ps, profileWithCond(n, s, -dr))
			}
		}
	}
	return ps
}

// TestCacheBoundaryHitMissIdentical: on every boundary profile, the
// cached (hit) decision — algorithm, prediction, PR tuning, and the
// full Bounds payload — equals the miss decision that populated it.
func TestCacheBoundaryHitMissIdentical(t *testing.T) {
	for _, tol := range []float64{0, 1e-13, 2.5e-13, 1e-6} {
		for _, p := range boundaryProfiles() {
			s := New(tol)
			s.Cache = NewDecisionCache(0)
			d1 := s.Decide(p)
			d2 := s.Decide(p)
			if d1 != d2 {
				t.Fatalf("tol=%g profile %v: miss %+v != hit %+v", tol, p, d1, d2)
			}
			if st := s.Cache.Stats(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("tol=%g profile %v: stats %+v, want 1 hit / 1 miss", tol, p, st)
			}
		}
	}
}

// TestCacheNeverCheaperAtBoundaries: under the monotone
// HeuristicPolicy, the memoized decision never picks a cheaper
// algorithm than the exact-profile policy call — exactly the
// documented conservatism claim, exercised where it's hardest (bucket
// edges).
func TestCacheNeverCheaperAtBoundaries(t *testing.T) {
	for _, tol := range []float64{0, 5e-14, 1.5e-13, 2.5e-13, 1e-12, 1e-9, 1e-6} {
		for _, p := range boundaryProfiles() {
			s := New(tol)
			s.Cache = NewDecisionCache(0)
			cached := s.Decide(p)
			direct, _ := s.Policy.Select(p, Requirement{Tolerance: tol})
			if cached.Alg.CostRank() < direct.CostRank() {
				t.Errorf("tol=%g profile %v: cached %v cheaper than direct %v",
					tol, p, cached.Alg, direct)
			}
		}
	}
}

// TestCacheBoundaryProfilesBucketDistinctly: neighbors across an exact
// edge land in different buckets (no silent aliasing of, e.g., dr=4
// with dr=5, or n=4096 with n=4097).
func TestCacheBoundaryProfilesBucketDistinctly(t *testing.T) {
	req := Requirement{Tolerance: 1e-12}
	a := quantize(profileWithCond(4096, 1e-4, -4), req)
	b := quantize(profileWithCond(4095, 1e-4, -4), req)
	if a == b {
		t.Errorf("n=4095 and n=4096 share bucket %+v", a)
	}
	c := quantize(profileWithCond(4096, 1e-4, -5), req)
	if a == c {
		t.Errorf("dr=4 and dr=5 share bucket %+v", a)
	}
}
