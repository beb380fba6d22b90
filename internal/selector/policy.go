package selector

import (
	"math"
	"sort"

	"repro/internal/fpu"
	"repro/internal/grid"
	"repro/internal/sum"
	"repro/internal/tree"
)

// Requirement is the application's reproducibility contract: the maximum
// tolerated run-to-run variability of a reduction, expressed as the
// standard deviation of the result across reduction trees relative to
// the magnitude of the sum. Tolerance 0 demands bitwise reproducibility.
type Requirement struct {
	Tolerance float64
}

// Policy maps a data profile and a requirement to the cheapest
// algorithm expected to satisfy the requirement.
type Policy interface {
	// Select returns the chosen algorithm and the predicted relative
	// variability it would exhibit on data matching the profile.
	Select(p Profile, req Requirement) (sum.Algorithm, float64)
}

// The safety multipliers of the analytic variability model: c_st, c_k
// and c_cp below, conservative values validated against the
// repository's grid sweeps.
const (
	cST = 2
	cK  = 4
	cCP = 4
)

// HeuristicPolicy selects from closed-form variability predictions:
//
//	ST: c_st · u · sqrt(n) · k   (roundoff random walk across orders)
//	K:  c_k  · u · k             (compensation removes the n growth)
//	CP: c_cp · n · u^2 · k       (only the second-order term survives)
//	PR: 0                        (bitwise reproducible by construction)
//
// The shapes follow Higham's bounds for the respective operators; the
// condition number k converts absolute error into relative variability,
// which is why the paper's grids darken so strongly along the k axis.
type HeuristicPolicy struct{}

// NewHeuristicPolicy returns the analytic policy.
func NewHeuristicPolicy() HeuristicPolicy { return HeuristicPolicy{} }

// Predict returns the modeled relative variability of alg on profile p.
//
// Degenerate profiles short-circuit to 0: a reduction over at most one
// value admits exactly one evaluation order, and an all-zero set sums
// to zero under every algorithm and tree, so no run-to-run variability
// exists for any operator (the general shapes would otherwise
// manufacture a c·u·k floor out of Cond's empty-set convention k = 1).
// Poisoned (NonFinite) profiles keep the general path: Cond is +Inf
// there, every non-reproducible prediction is +Inf, and the ladder
// walk escalates to a reproducible rung.
func (hp HeuristicPolicy) Predict(alg sum.Algorithm, p Profile) float64 {
	if p.degenerate() {
		return 0
	}
	n := float64(p.N)
	if n < 1 {
		n = 1 // poisoned empty profiles: keep the shapes finite
	}
	k := p.Cond()
	u := fpu.UnitRoundoff
	switch alg {
	case sum.StandardAlg:
		return cST * u * math.Sqrt(n) * k
	case sum.PairwiseAlg:
		// Balanced-tree depth replaces the serial length.
		d := math.Log2(n) + 1
		return cST * u * math.Sqrt(d) * k
	case sum.KahanAlg:
		return cK * u * k
	case sum.NeumaierAlg:
		return cK * u * k // same first-order behavior as Kahan
	case sum.CompositeAlg:
		return cCP * n * u * u * k
	case sum.PreroundedAlg, sum.BinnedAlg:
		// Bitwise reproducible by construction.
		return 0
	}
	return math.Inf(1)
}

// Select implements Policy: the cheapest ladder algorithm whose
// predicted variability meets the requirement. The ladder ends in
// reproducible rungs predicting 0, so the walk always terminates; the
// cheapest reproducible algorithm is the safety net if it somehow
// doesn't.
func (hp HeuristicPolicy) Select(p Profile, req Requirement) (sum.Algorithm, float64) {
	for _, alg := range sum.SelectionLadder {
		if pred := hp.Predict(alg, p); pred <= req.Tolerance {
			return alg, pred
		}
	}
	return sum.CheapestReproducible(), 0
}

// CalibratedPolicy selects from measured variability: a table of grid
// cells evaluated offline (grid.Sweep), matched by nearest neighbor in
// (log n, log k, dr) space with a safety factor on the measured value.
type CalibratedPolicy struct {
	cells  []grid.CellResult
	safety float64
}

// CalibrationConfig tunes the offline sweep backing a CalibratedPolicy.
type CalibrationConfig struct {
	// Ns, Ks, DRs span the expected operating envelope.
	Ns  []int
	Ks  []float64
	DRs []int
	// Algorithms to measure per cell (default sum.PaperAlgorithms; the
	// calibration harness passes the full selection ladder).
	Algorithms []sum.Algorithm
	// Trials per cell (default 50).
	Trials int
	// Shape of the calibration trees (default Balanced).
	Shape tree.Shape
	// Safety multiplies measured variability before comparison with the
	// tolerance (default 4).
	Safety float64
	Seed   uint64
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{1 << 10, 1 << 14, 1 << 18}
	}
	if len(c.Ks) == 0 {
		c.Ks = []float64{1, 1e2, 1e4, 1e6, 1e8}
	}
	if len(c.DRs) == 0 {
		c.DRs = []int{0, 16, 32}
	}
	if c.Trials <= 0 {
		c.Trials = 50
	}
	if c.Safety <= 0 {
		c.Safety = 4
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = sum.PaperAlgorithms
	}
	return c
}

// Calibrate runs the offline sweep and returns a measurement-backed
// policy. Cost scales with len(Ns)*len(Ks)*len(DRs)*Trials*max(Ns).
func Calibrate(cfg CalibrationConfig) *CalibratedPolicy {
	cfg = cfg.withDefaults()
	var cells []grid.CellSpec
	for _, n := range cfg.Ns {
		cells = append(cells, grid.KDRGrid(n, cfg.Ks, cfg.DRs)...)
	}
	results := grid.Sweep(cells, grid.Config{
		Algorithms: cfg.Algorithms,
		Trials:     cfg.Trials,
		Shape:      cfg.Shape,
		Seed:       cfg.Seed,
	})
	return &CalibratedPolicy{cells: results, safety: cfg.Safety}
}

// NewCalibratedPolicy wraps pre-computed sweep results (e.g. loaded from
// a previous run) as a policy.
func NewCalibratedPolicy(results []grid.CellResult, safety float64) *CalibratedPolicy {
	if safety <= 0 {
		safety = 4
	}
	cp := &CalibratedPolicy{safety: safety}
	cp.cells = append(cp.cells, results...)
	return cp
}

// nearest returns the calibration cell closest to the profile in
// (log2 n, log10 k, dr/8) space.
func (cp *CalibratedPolicy) nearest(p Profile) (grid.CellResult, bool) {
	if len(cp.cells) == 0 {
		return grid.CellResult{}, false
	}
	pk := clampLog10K(p.Cond())
	pn := math.Log2(float64(max64(p.N, 1)))
	pdr := float64(p.DynRange()) / 8
	bestIdx, bestDist := -1, math.Inf(1)
	for i, c := range cp.cells {
		dk := clampLog10K(c.MeasuredK) - pk
		dn := math.Log2(float64(c.Spec.N)) - pn
		ddr := float64(c.MeasuredDR)/8 - pdr
		d := dk*dk + dn*dn + ddr*ddr
		if d < bestDist {
			bestDist, bestIdx = d, i
		}
	}
	if bestIdx < 0 {
		// Every distance was NaN (degenerate cell coordinates); no
		// meaningful neighbor exists.
		return grid.CellResult{}, false
	}
	return cp.cells[bestIdx], true
}

// clampLog10K maps k (possibly +Inf or NaN) onto a bounded log scale so
// that distances remain finite; k beyond 10^17 (full cancellation at
// double precision) saturates, and NaN estimates — an overflowed Σ|x|
// yields Cond = Inf/Inf — are treated as saturated rather than poisoning
// every distance they touch.
func clampLog10K(k float64) float64 {
	if math.IsNaN(k) || k > 1e17 {
		return 17
	}
	if k < 1 {
		k = 1
	}
	return math.Log10(k)
}

// Select implements Policy using measured cell variability.
func (cp *CalibratedPolicy) Select(p Profile, req Requirement) (sum.Algorithm, float64) {
	cell, ok := cp.nearest(p)
	if !ok {
		return NewHeuristicPolicy().Select(p, req)
	}
	type cand struct {
		alg  sum.Algorithm
		pred float64
	}
	var cands []cand
	for alg, rel := range cell.RelStdDev {
		cands = append(cands, cand{alg, rel * cp.safety})
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].alg.CostRank() < cands[j].alg.CostRank()
	})
	for _, c := range cands {
		// Tolerance 0 demands bitwise reproducibility, which only an
		// algorithm's construction can certify: a measured spread of
		// exactly 0 (common for CP on benign cells) is not that
		// guarantee (see CalibratedSurfacePolicy.Select).
		if req.Tolerance == 0 && !c.alg.Reproducible() {
			continue
		}
		if c.pred <= req.Tolerance {
			return c.alg, c.pred
		}
	}
	// No measured column met the tolerance (calibration tables need not
	// include a reproducible algorithm): escalate to the cheapest
	// reproducible rung of the ladder rather than a hardcoded one.
	return sum.CheapestReproducible(), 0
}

// Cells exposes the calibration table (for persistence and reports).
func (cp *CalibratedPolicy) Cells() []grid.CellResult { return cp.cells }

// Static is a Policy that always selects one fixed algorithm, with a
// predicted variability of 0. It pins an operator while keeping the
// selector's profiling, fused speculation, and caching machinery in
// the loop — the benchmarks use it to isolate the Neumaier fast path,
// which the analytic policy never reaches (Kahan precedes it in
// sum.PaperAlgorithms at the same predicted variability).
type Static struct {
	Alg sum.Algorithm
}

// Select implements Policy.
func (st Static) Select(Profile, Requirement) (sum.Algorithm, float64) {
	return st.Alg, 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
