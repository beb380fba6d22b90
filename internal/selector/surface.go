package selector

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/grid"
	"repro/internal/sum"
)

// Fitted selection surfaces.
//
// A CalibratedPolicy answers every Select with a nearest-neighbor scan
// over its calibration cells plus a candidate sort — microseconds and a
// handful of allocations per decision. This file compiles the same
// measurements once, at load time, into a dense selection surface over
// the quantized profile axes the decision cache already uses, so a
// serve-time pick is one array index and a short ladder walk: a handful
// of comparisons, zero allocations, nanoseconds (the cuMat pattern of
// measuring piecewise selection boundaries in log-log space once per
// device, applied to the summation ladder).
//
// The fit is piecewise-linear along the condition axis: within the
// calibration plane nearest to a bucket in (log2 n, dynamic range),
// each algorithm's measured relative variability is interpolated
// log-linearly in log10 k between the bracketing calibration knots
// (clamped flat beyond the first and last knot). The level set
// safety·rel(log2 n, log10 k) = tolerance is therefore a
// piecewise-linear crossover boundary per algorithm, and tightening the
// tolerance sweeps the pick frontier exactly as the paper's Fig 12
// does. Interpolation involving a reproducible 0 or a saturated +Inf
// knot takes the conservative max of the two endpoints, so the surface
// never reports a smaller variability than both surrounding
// measurements.
//
// Extrapolation is pinned to clamping on every axis, mirroring what the
// scan's nearest-neighbor metric resolves to at the table extremes:
// n below the smallest (or above the largest) calibrated size uses the
// edge plane, condition numbers beyond the calibrated knots use the
// edge knot (condBucket already saturates k >= 1e17 into one sentinel
// bucket), and dynamic ranges outside the calibrated span use the edge
// plane. TestSurfaceBoundary* pin this agreement cell by cell.

// CostSample is one measured execution cost: the wall-clock ns/op of
// summing an n-element benign slice with one algorithm under one engine
// configuration (Workers == 0 means the serial streaming path). CostSweep
// produces them on the
// local host; FitSurface uses them to order each size bucket's ladder
// walk by measured cost instead of the static CostRank assumption.
type CostSample struct {
	Alg     sum.Algorithm
	N       int
	Workers int
	NsPerOp float64
}

// surfaceKBuckets spans condBucket's full range: quarter-decade buckets
// 0..68 plus the saturated kInfBucket sentinel.
const surfaceKBuckets = int(kInfBucket) + 1

// CalibratedSurfacePolicy is a Policy backed by a fitted selection
// surface: per (size, condition, dynamic-range) bucket it stores each
// candidate algorithm's predicted relative variability (already
// safety-scaled), and per size bucket the measured-cost walk order.
// Select is a pure array lookup plus at most one comparison per ladder
// rung — no scan, no sort, no allocation — and is safe for concurrent
// use (the surface is immutable after FitSurface).
//
// An empty surface (no usable calibration cells) degrades to the
// analytic HeuristicPolicy, the same fallback the scan uses when its
// table is degenerate.
type CalibratedSurfacePolicy struct {
	safety float64
	// Bucket envelope: nq = bits.Len64(n) in [nqLo, nqHi], drq =
	// ceil(dr/4) in [drLo, drHi]; queries outside clamp to the edge.
	nqLo, nqHi int
	drLo, drHi int
	nDR        int
	// algs is the candidate set (every algorithm with at least one
	// measurement), in CostRank order.
	algs []sum.Algorithm
	// order[nqi][j] indexes algs: the walk order of size bucket nqi,
	// measured-cost ascending when cost samples cover the bucket,
	// CostRank (identity) otherwise.
	order [][]uint8
	// pred[((nqi*surfaceKBuckets)+kq)*nDR+dri)*len(algs)+ai] is the
	// safety-scaled predicted relative variability of algs[ai] in that
	// bucket.
	pred []float64
}

// FitSurface compiles calibration measurements into a selection
// surface. cells is a grid sweep (e.g. CalibratedPolicy.Cells or a
// loaded Calibration's); costs optionally carries CostSweep timings
// that re-order each size bucket's ladder walk by measured cost (nil
// keeps the static CostRank order); safety multiplies measured
// variability before tolerance comparison exactly as in
// NewCalibratedPolicy (<= 0 selects the default 4).
//
// Degenerate input degrades, never corrupts: cells with a non-positive
// size are skipped, algorithms missing from a plane (an engine that
// failed to calibrate) predict +Inf there so the walk escalates past
// them, a measured NaN poisons its knot to +Inf (a failed engine must
// not be extrapolated over), non-finite cost timings are ignored, and
// a sweep with no usable cell at all yields an empty surface that
// serves through the heuristic fallback.
func FitSurface(cells []grid.CellResult, costs []CostSample, safety float64) *CalibratedSurfacePolicy {
	if safety <= 0 {
		safety = 4
	}
	sp := &CalibratedSurfacePolicy{safety: safety}
	planes := buildPlanes(cells)
	if len(planes) == 0 {
		return sp
	}
	sp.algs = candidateAlgs(cells)

	// Bucket envelope from the calibrated planes.
	sp.nqLo, sp.nqHi = math.MaxInt, 0
	sp.drLo, sp.drHi = math.MaxInt, 0
	for _, pl := range planes {
		nq := bits.Len64(uint64(pl.n))
		drq := (pl.dr + 3) / 4
		sp.nqLo, sp.nqHi = min(sp.nqLo, nq), max(sp.nqHi, nq)
		sp.drLo, sp.drHi = min(sp.drLo, drq), max(sp.drHi, drq)
	}
	nN := sp.nqHi - sp.nqLo + 1
	sp.nDR = sp.drHi - sp.drLo + 1
	nalg := len(sp.algs)
	sp.pred = make([]float64, nN*surfaceKBuckets*sp.nDR*nalg)

	for nqi := 0; nqi < nN; nqi++ {
		for dri := 0; dri < sp.nDR; dri++ {
			// Plane choice is k-independent: nearest in the scan's
			// (log2 n, dr/8) metric. The n coordinate is the bucket's
			// log2 center — bucket nq covers [2^(nq-1), 2^nq), so its
			// center is nq - 0.5 (a power-of-two plane n = 2^(nq-1)
			// lands in bucket nq and wins its own bucket).
			pl := nearestPlane(planes, float64(sp.nqLo+nqi)-0.5, float64(4*(sp.drLo+dri))/8)
			for kq := 0; kq < surfaceKBuckets; kq++ {
				// Bucket-edge condition coordinate: quarter-decade upper
				// edge, saturating at clampLog10K's cap of 17 (the
				// sentinel bucket shares the cap).
				x := math.Min(float64(kq)/4, 17)
				base := (((nqi*surfaceKBuckets)+kq)*sp.nDR + dri) * nalg
				for ai, alg := range sp.algs {
					sp.pred[base+ai] = safety * pl.interp(alg, x)
				}
			}
		}
	}
	sp.order = walkOrders(sp.algs, costs, sp.nqLo, sp.nqHi)
	return sp
}

// Select implements Policy: index the bucket, walk the size bucket's
// cost order, return the first algorithm whose fitted prediction meets
// the requirement. Mirrors CalibratedPolicy.Select's contract,
// including the escalation to the cheapest reproducible rung when no
// fitted column qualifies and the heuristic fallback on an empty
// surface.
func (sp *CalibratedSurfacePolicy) Select(p Profile, req Requirement) (sum.Algorithm, float64) {
	if sp == nil || len(sp.pred) == 0 {
		return NewHeuristicPolicy().Select(p, req)
	}
	nqi := clampInt(bits.Len64(uint64(max64(p.N, 1))), sp.nqLo, sp.nqHi) - sp.nqLo
	kq := int(condBucket(p.Cond()))
	dri := clampInt((p.DynRange()+3)/4, sp.drLo, sp.drHi) - sp.drLo
	base := (((nqi*surfaceKBuckets)+kq)*sp.nDR + dri) * len(sp.algs)
	for _, ai := range sp.order[nqi] {
		if pr := sp.pred[base+int(ai)]; pr <= req.Tolerance {
			// Tolerance 0 demands bitwise reproducibility, which only
			// an algorithm's construction can certify: a measured
			// spread of exactly 0 over a finite sweep (common for CP
			// on benign cells) is not that guarantee, and the
			// measured-cost walk order may legitimately visit such an
			// algorithm before the reproducible rungs.
			if req.Tolerance == 0 && !sp.algs[ai].Reproducible() {
				continue
			}
			return sp.algs[ai], pr
		}
	}
	return sum.CheapestReproducible(), 0
}

// Empty reports whether the fit found no usable calibration cell (the
// policy then serves through the heuristic fallback).
func (sp *CalibratedSurfacePolicy) Empty() bool { return sp == nil || len(sp.pred) == 0 }

// Algorithms returns the candidate set the surface was fitted over, in
// CostRank order.
func (sp *CalibratedSurfacePolicy) Algorithms() []sum.Algorithm {
	return append([]sum.Algorithm(nil), sp.algs...)
}

// WalkOrder returns the fitted walk order for an n-element reduction —
// measured-cost ascending where the cost sweep covered the size bucket,
// CostRank otherwise. For reports and tests.
func (sp *CalibratedSurfacePolicy) WalkOrder(n int64) []sum.Algorithm {
	if sp.Empty() {
		return nil
	}
	nqi := clampInt(bits.Len64(uint64(max64(n, 1))), sp.nqLo, sp.nqHi) - sp.nqLo
	out := make([]sum.Algorithm, len(sp.order[nqi]))
	for j, ai := range sp.order[nqi] {
		out[j] = sp.algs[ai]
	}
	return out
}

// plane is one calibrated (n, dr) slice: the per-algorithm variability
// knots along the condition axis, sorted by clampLog10K(measured k).
type plane struct {
	n  int
	dr int
	// xs are the knot coordinates; rel[alg][i] pairs with xs[i]
	// (math.NaN marks an algorithm missing at that knot).
	xs  []float64
	rel map[sum.Algorithm][]float64
}

// interp evaluates one algorithm's piecewise-log-linear variability fit
// at condition coordinate x (clamped to the knot span). Knots where the
// algorithm is unmeasured or NaN are skipped; no knot at all predicts
// +Inf so the ladder walk escalates past the algorithm.
func (pl *plane) interp(alg sum.Algorithm, x float64) float64 {
	rel, ok := pl.rel[alg]
	if !ok {
		return math.Inf(1)
	}
	// Knots are sorted ascending by sortKnots: lo ends as the last
	// usable knot at or below x, hi as the first at or above.
	lo, hi := -1, -1
	for i, v := range rel {
		if math.IsNaN(v) {
			continue
		}
		if pl.xs[i] <= x {
			lo = i
		}
		if hi < 0 && pl.xs[i] >= x {
			hi = i
		}
	}
	if lo < 0 && hi < 0 {
		return math.Inf(1)
	}
	if lo < 0 {
		return rel[hi] // clamped below the span
	}
	if hi < 0 {
		return rel[lo] // clamped above the span
	}
	a, b := rel[lo], rel[hi]
	xa, xb := pl.xs[lo], pl.xs[hi]
	if xa == xb || a == b {
		return math.Max(a, b)
	}
	if a <= 0 || b <= 0 || math.IsInf(a, 0) || math.IsInf(b, 0) {
		// A reproducible 0 or a saturated +Inf endpoint admits no
		// log-linear segment; the conservative upper envelope never
		// under-reports variability between the knots.
		return math.Max(a, b)
	}
	t := (x - xa) / (xb - xa)
	return math.Pow(10, (1-t)*math.Log10(a)+t*math.Log10(b))
}

// buildPlanes groups usable calibration cells into (n, measured dr)
// planes with condition-sorted knots.
func buildPlanes(cells []grid.CellResult) []*plane {
	type key struct{ n, dr int }
	byKey := map[key]*plane{}
	var keys []key
	for _, c := range cells {
		if c.Spec.N < 1 || len(c.RelStdDev) == 0 {
			continue // unusable: no size or no measurements at all
		}
		k := key{c.Spec.N, c.MeasuredDR}
		pl, ok := byKey[k]
		if !ok {
			pl = &plane{n: k.n, dr: k.dr, rel: map[sum.Algorithm][]float64{}}
			byKey[k] = pl
			keys = append(keys, k)
		}
		pl.xs = append(pl.xs, clampLog10K(c.MeasuredK))
		for _, alg := range sum.Algorithms {
			rel, measured := c.RelStdDev[alg]
			if !measured {
				continue
			}
			if math.IsNaN(rel) {
				// A measured NaN is a failed engine, not a missing
				// measurement: poison the knot so the fit escalates past
				// this algorithm near it, instead of extrapolating its
				// healthy knots over the failure.
				rel = math.Inf(1)
			}
			kn := pl.rel[alg]
			for len(kn) < len(pl.xs)-1 {
				kn = append(kn, math.NaN()) // backfill knots this alg missed
			}
			pl.rel[alg] = append(kn, rel)
		}
		// Algorithms absent from this cell fall behind; pad lazily so
		// every knot slice stays index-aligned with xs.
		for alg, kn := range pl.rel {
			for len(kn) < len(pl.xs) {
				kn = append(kn, math.NaN())
			}
			pl.rel[alg] = kn
		}
	}
	out := make([]*plane, 0, len(keys))
	for _, k := range keys {
		pl := byKey[k]
		pl.sortKnots()
		out = append(out, pl)
	}
	// Deterministic plane order (ties in nearestPlane break toward the
	// first), independent of input cell order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n < out[j].n
		}
		return out[i].dr < out[j].dr
	})
	return out
}

// sortKnots orders the plane's knots by condition coordinate, keeping
// every algorithm's slice aligned.
func (pl *plane) sortKnots() {
	idx := make([]int, len(pl.xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pl.xs[idx[a]] < pl.xs[idx[b]] })
	permute := func(s []float64) []float64 {
		out := make([]float64, len(s))
		for i, j := range idx {
			out[i] = s[j]
		}
		return out
	}
	pl.xs = permute(pl.xs)
	for alg, kn := range pl.rel {
		pl.rel[alg] = permute(kn)
	}
}

// nearestPlane picks the plane closest to (log2 n, dr/8) — the same
// axis scaling CalibratedPolicy.nearest uses, with the condition axis
// handled by in-plane interpolation instead of distance.
func nearestPlane(planes []*plane, pn, pdr float64) *plane {
	best, bestDist := planes[0], math.Inf(1)
	for _, pl := range planes {
		dn := math.Log2(float64(pl.n)) - pn
		ddr := float64(pl.dr)/8 - pdr
		if d := dn*dn + ddr*ddr; d < bestDist {
			best, bestDist = pl, d
		}
	}
	return best
}

// candidateAlgs collects every algorithm with at least one measurement,
// in CostRank order (the scan's sort, applied once at fit time).
func candidateAlgs(cells []grid.CellResult) []sum.Algorithm {
	seen := map[sum.Algorithm]bool{}
	for _, c := range cells {
		for alg := range c.RelStdDev {
			seen[alg] = true
		}
	}
	var algs []sum.Algorithm
	for _, alg := range sum.Algorithms { // already cost-ordered
		if seen[alg] {
			algs = append(algs, alg)
		}
	}
	return algs
}

// walkOrders derives the per-size-bucket walk order from measured cost
// samples: within a bucket, algorithms sort by their cheapest measured
// ns/op across engine configurations, unmeasured algorithms keeping
// their CostRank position at the end. Buckets without any sample
// inherit the nearest measured bucket; with no samples at all every
// bucket keeps the identity (CostRank) order. Non-finite or
// non-positive timings are ignored — a failed measurement never
// corrupts the order.
func walkOrders(algs []sum.Algorithm, costs []CostSample, nqLo, nqHi int) [][]uint8 {
	nN := nqHi - nqLo + 1
	identity := make([]uint8, len(algs))
	for i := range identity {
		identity[i] = uint8(i)
	}
	orders := make([][]uint8, nN)
	algIdx := map[sum.Algorithm]int{}
	for i, a := range algs {
		algIdx[a] = i
	}
	// best[nqi][ai] is the cheapest usable timing seen for that bucket.
	best := make([]map[int]float64, nN)
	covered := make([]bool, nN)
	for _, cs := range costs {
		if cs.N < 1 || !(cs.NsPerOp > 0) || math.IsInf(cs.NsPerOp, 0) {
			continue
		}
		ai, ok := algIdx[cs.Alg]
		if !ok {
			continue
		}
		nqi := clampInt(bits.Len64(uint64(cs.N)), nqLo, nqHi) - nqLo
		if best[nqi] == nil {
			best[nqi] = map[int]float64{}
		}
		if v, ok := best[nqi][ai]; !ok || cs.NsPerOp < v {
			best[nqi][ai] = cs.NsPerOp
		}
		covered[nqi] = true
	}
	for nqi := 0; nqi < nN; nqi++ {
		src := nqi
		if !covered[src] {
			// Inherit the nearest covered bucket (ties toward smaller n).
			bestD := math.MaxInt
			found := -1
			for j := 0; j < nN; j++ {
				if covered[j] {
					if d := absInt(j - nqi); d < bestD {
						bestD, found = d, j
					}
				}
			}
			if found < 0 {
				orders[nqi] = identity
				continue
			}
			src = found
		}
		ord := append([]uint8(nil), identity...)
		costOf := func(ai uint8) float64 {
			if v, ok := best[src][int(ai)]; ok {
				return v
			}
			return math.Inf(1) // unmeasured: keep CostRank position last
		}
		sort.SliceStable(ord, func(a, b int) bool { return costOf(ord[a]) < costOf(ord[b]) })
		orders[nqi] = ord
	}
	return orders
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
