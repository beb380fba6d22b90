// Package grid implements the parameter-space methodology of the paper's
// Section V-C (illustrated by its Fig 8): the spaces (k, dr), (n, dr),
// and (n, k) are covered by a grid of cells; for each cell an operand
// set with the cell's parameters is generated and summed over many
// distinct reduction trees; and the cell is scored by the standard
// deviation of the errors — the visualized "level of irreproducibility".
//
// The sweep engine samples one shared plan stream per cell and walks
// every tree with all configured algorithms in lockstep
// (tree.MultiExecutor): the paper's question — how does each algorithm
// respond to the same tree nondeterminism — answered with one operand
// permutation per tree instead of one per tree per algorithm,
// streaming statistics instead of materialized sum slices, and a flat
// (cell, trial-block) work queue so grids with a few huge cells do not
// serialize on their largest cell. Results are bitwise-identical at any
// worker count.
package grid

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bigref"
	"repro/internal/binned"
	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sum"
	"repro/internal/tree"
)

// CellSpec locates one cell in the parameter space.
type CellSpec struct {
	N        int
	Cond     float64
	DynRange int
}

// String renders the cell coordinates.
func (c CellSpec) String() string {
	return fmt.Sprintf("(n=%d, k=%g, dr=%d)", c.N, c.Cond, c.DynRange)
}

// CellResult is the measured irreproducibility of one cell.
type CellResult struct {
	Spec CellSpec
	// MeasuredK and MeasuredDR are the achieved properties of the
	// generated set (the generator hits dr exactly and k approximately).
	MeasuredK  float64
	MeasuredDR int
	// StdDev[alg] is the standard deviation of the absolute errors over
	// the sampled reduction trees.
	StdDev map[sum.Algorithm]float64
	// RelStdDev[alg] is StdDev normalized by |exact sum| — the
	// conditioning-aware variability that shades Figs 9–12 (the paper's
	// k axis acts through the relative, not absolute, error). For cells
	// whose exact sum is zero it is 0 when the algorithm is perfectly
	// reproducible and +Inf otherwise.
	RelStdDev map[sum.Algorithm]float64
	// MaxErr[alg] is the worst absolute error observed.
	MaxErr map[sum.Algorithm]float64
	// Distinct[alg] counts distinct result bit patterns; 1 = bitwise
	// reproducible over the sample.
	Distinct map[sum.Algorithm]int
}

// Config tunes a sweep.
type Config struct {
	// Algorithms to evaluate per cell (default: the paper's four).
	Algorithms []sum.Algorithm
	// Trials is the number of distinct reduction trees per cell
	// (the paper uses 1000 balanced trees).
	Trials int
	// Shape of the reduction trees (the paper's grids use Balanced).
	Shape tree.Shape
	// Seed makes the sweep reproducible.
	Seed uint64
	// Workers bounds concurrency (default: GOMAXPROCS). Results are
	// bitwise-identical at any worker count.
	Workers int
	// TrialBlock is the number of trials per work unit (default
	// 32). Block boundaries seed the per-block plan streams, so
	// TrialBlock is part of the experiment definition — changing it
	// changes the sampled trees, whereas Workers never does.
	TrialBlock int
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = sum.PaperAlgorithms
	}
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TrialBlock <= 0 {
		c.TrialBlock = 32
	}
	return c
}

// blocks returns the number of trial blocks per cell.
func (c Config) blocks() int { return (c.Trials + c.TrialBlock - 1) / c.TrialBlock }

// KDRGrid enumerates the (k, dr) space at fixed n — Fig 9's axes.
func KDRGrid(n int, ks []float64, drs []int) []CellSpec {
	var cells []CellSpec
	for _, dr := range drs {
		for _, k := range ks {
			cells = append(cells, CellSpec{N: n, Cond: k, DynRange: dr})
		}
	}
	return cells
}

// NDRGrid enumerates the (n, dr) space at fixed k — Fig 10's axes.
func NDRGrid(ns []int, k float64, drs []int) []CellSpec {
	var cells []CellSpec
	for _, dr := range drs {
		for _, n := range ns {
			cells = append(cells, CellSpec{N: n, Cond: k, DynRange: dr})
		}
	}
	return cells
}

// NKGrid enumerates the (n, k) space at fixed dr — Fig 11's axes.
func NKGrid(ns []int, ks []float64, dr int) []CellSpec {
	var cells []CellSpec
	for _, k := range ks {
		for _, n := range ns {
			cells = append(cells, CellSpec{N: n, Cond: k, DynRange: dr})
		}
	}
	return cells
}

// Sweep evaluates every cell and returns results in the cells' order.
// Sweep(cells, cfg)[i] is always identical to EvalCell(cells[i], cfg,
// cellSeed(cfg.Seed, i)), whatever the worker count.
//
// It schedules a flat queue of (cell, trial-block) units over a
// bounded worker pool. Workers pull units with an atomic cursor, so all
// of them can cooperate on the blocks of one expensive cell instead of
// idling while a single goroutine grinds through it. Each unit writes
// its per-algorithm streams into its own slot; per-cell results are
// then merged in ascending block order, keeping the output
// bitwise-stable at any worker count (the invariant internal/parallel
// established for shared-memory reductions).
func Sweep(cells []CellSpec, cfg Config) []CellResult {
	cfg = cfg.withDefaults()
	type unit struct{ cell, block int }
	nb := cfg.blocks()
	units := make([]unit, 0, len(cells)*nb)
	for ci := range cells {
		for b := 0; b < nb; b++ {
			units = append(units, unit{ci, b})
		}
	}
	data := make([]cellData, len(cells))
	partials := make([][][]*metrics.ErrorStream, len(cells))
	for ci := range partials {
		partials[ci] = make([][]*metrics.ErrorStream, nb)
	}
	workers := cfg.Workers
	if workers > len(units) {
		workers = len(units)
	}
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker reusable state: lanes, lockstep executor, plan
			// source, and output slot all reach a zero-allocation steady
			// state across every unit this worker processes.
			fw := newFusedWorker(cfg)
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				seed := cellSeed(cfg.Seed, u.cell)
				cd := &data[u.cell]
				cd.init(cells[u.cell], seed)
				partials[u.cell][u.block] = fw.evalBlock(cfg, cd, seed, u.block)
			}
		}()
	}
	wg.Wait()
	out := make([]CellResult, len(cells))
	for ci := range cells {
		out[ci] = mergeCellResult(cells[ci], cfg, &data[ci], partials[ci])
	}
	return out
}

// cellData is one cell's lazily generated operand set, shared by all of
// the cell's trial blocks (whichever worker touches the cell first
// generates it).
type cellData struct {
	once sync.Once
	xs   []float64
	ref  float64
	k    float64
	dr   int
}

func (cd *cellData) init(cell CellSpec, seed uint64) {
	cd.once.Do(func() {
		cd.xs = gen.Spec{
			N:        cell.N,
			Cond:     cell.Cond,
			DynRange: cell.DynRange,
			Seed:     seed,
		}.Generate()
		cd.ref = bigref.SumFloat64(cd.xs)
		cd.k = metrics.CondNumber(cd.xs)
		cd.dr = metrics.DynRange(cd.xs)
	})
}

// fusedWorker owns one worker's reusable evaluation state.
type fusedWorker struct {
	me  *tree.MultiExecutor
	ps  *tree.PlanSource
	out []float64
}

func newFusedWorker(cfg Config) *fusedWorker {
	return &fusedWorker{
		me:  tree.NewMultiExecutor(Lanes(cfg.Algorithms)...),
		ps:  tree.NewPlanSource(cfg.Shape, 0, 0),
		out: make([]float64, len(cfg.Algorithms)),
	}
}

// evalBlock evaluates one cell's trials [block*TrialBlock, min(...,
// Trials)) over the block's plan stream, returning one error stream per
// configured algorithm. Every plan is permuted once and walked by all
// algorithms in lockstep.
func (w *fusedWorker) evalBlock(cfg Config, cd *cellData, cellSeed uint64, block int) []*metrics.ErrorStream {
	lo := block * cfg.TrialBlock
	hi := lo + cfg.TrialBlock
	if hi > cfg.Trials {
		hi = cfg.Trials
	}
	streams := make([]*metrics.ErrorStream, len(cfg.Algorithms))
	for i := range streams {
		streams[i] = metrics.NewErrorStream(cd.ref, hi-lo)
	}
	w.ps.Reset(cfg.Shape, len(cd.xs), blockSeed(cellSeed, block))
	for t := lo; t < hi; t++ {
		w.me.Run(w.ps.Next(), cd.xs, w.out)
		for i, s := range w.out {
			streams[i].Observe(s)
		}
	}
	return streams
}

// mergeCellResult folds a cell's per-block streams (in ascending block
// order — the deterministic merge) into its CellResult.
func mergeCellResult(cell CellSpec, cfg Config, cd *cellData, blocks [][]*metrics.ErrorStream) CellResult {
	res := CellResult{
		Spec:       cell,
		MeasuredK:  cd.k,
		MeasuredDR: cd.dr,
		StdDev:     make(map[sum.Algorithm]float64, len(cfg.Algorithms)),
		RelStdDev:  make(map[sum.Algorithm]float64, len(cfg.Algorithms)),
		MaxErr:     make(map[sum.Algorithm]float64, len(cfg.Algorithms)),
		Distinct:   make(map[sum.Algorithm]int, len(cfg.Algorithms)),
	}
	for ai, alg := range cfg.Algorithms {
		agg := blocks[0][ai]
		for b := 1; b < len(blocks); b++ {
			agg.Merge(blocks[b][ai])
		}
		sd := agg.StdDev()
		res.StdDev[alg] = sd
		res.MaxErr[alg] = agg.Max()
		res.Distinct[alg] = agg.Distinct()
		switch {
		case sd == 0:
			res.RelStdDev[alg] = 0
		case cd.ref == 0:
			res.RelStdDev[alg] = math.Inf(1)
		default:
			res.RelStdDev[alg] = sd / math.Abs(cd.ref)
		}
	}
	return res
}

// blockSeed derives the plan-stream seed of one trial block within a
// cell. Blocks occupy their own stream domain, disjoint from the
// per-cell domain (cellSeed) split off the same base seed.
func blockSeed(cellSeed uint64, block int) uint64 {
	return fpu.MixSeed(cellSeed, 0xb10c<<32|uint64(block))
}

// Lanes returns one lockstep-execution lane per algorithm, for use with
// tree.MultiExecutor. Each lane is the exact single-algorithm executor,
// so fused roots are bitwise-identical to Executor.Run on the same
// plan.
func Lanes(algs []sum.Algorithm) []tree.Lane {
	out := make([]tree.Lane, len(algs))
	for i, alg := range algs {
		out[i] = AlgLane(alg)
	}
	return out
}

// AlgLane returns the tree executor for one algorithm, usable on its
// own (Lane.Run) or as a lockstep lane.
func AlgLane(alg sum.Algorithm) tree.Lane {
	switch alg {
	case sum.StandardAlg, sum.PairwiseAlg:
		return tree.NewLane[float64](sum.STMonoid{})
	case sum.KahanAlg:
		return tree.NewLane[sum.KState](sum.KahanMonoid{})
	case sum.NeumaierAlg:
		return tree.NewLane[sum.NState](sum.NeumaierMonoid{})
	case sum.CompositeAlg:
		return tree.NewLane(sum.CPMonoid{})
	case sum.PreroundedAlg:
		return tree.NewLane[sum.PRState](sum.DefaultPRConfig().Monoid())
	case sum.BinnedAlg:
		return tree.NewLane[binned.State](sum.BNMonoid{})
	}
	panic("grid: invalid algorithm " + alg.String())
}

// cellSeed derives cell i's generation seed from the sweep seed. The
// full splitmix mix guarantees distinct streams per cell; the previous
// seed^i*constant arithmetic left cell 0 with the raw sweep seed and
// correlated neighboring cells.
func cellSeed(sweepSeed uint64, i int) uint64 {
	return fpu.MixSeed(sweepSeed, uint64(i))
}

// EvalCell generates the cell's operand set and measures per-algorithm
// error spreads over cfg.Trials random reduction trees, feeding one
// shared plan stream per trial block to all algorithms.
func EvalCell(cell CellSpec, cfg Config, seed uint64) CellResult {
	cfg = cfg.withDefaults()
	var cd cellData
	cd.init(cell, seed)
	w := newFusedWorker(cfg)
	blocks := make([][]*metrics.ErrorStream, cfg.blocks())
	for b := range blocks {
		blocks[b] = w.evalBlock(cfg, &cd, seed, b)
	}
	return mergeCellResult(cell, cfg, &cd, blocks)
}

// AlgSpread runs trials random-assignment trees of the given shape over
// xs with algorithm alg, returning the root sums.
func AlgSpread(alg sum.Algorithm, shape tree.Shape, xs []float64, trials int, rng *fpu.RNG) []float64 {
	return tree.Spread(AlgLane(alg), shape, xs, trials, rng)
}

// CheapestAcceptable returns the cheapest algorithm (by CostRank) whose
// relative error standard deviation in res is at or below threshold —
// the Fig 12 classification. Candidates are visited in deterministic
// (CostRank, algorithm id) order, never by ranging over the map, so a
// tie between equal-cost algorithms always resolves to the lowest id
// instead of flipping with Go's randomized map iteration. ok is false
// when none qualifies.
func CheapestAcceptable(res CellResult, threshold float64) (alg sum.Algorithm, ok bool) {
	algs := make([]sum.Algorithm, 0, len(res.RelStdDev))
	for a := range res.RelStdDev {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool {
		ri, rj := algs[i].CostRank(), algs[j].CostRank()
		if ri != rj {
			return ri < rj
		}
		return algs[i] < algs[j]
	})
	for _, a := range algs {
		if sd := res.RelStdDev[a]; sd <= threshold && !math.IsNaN(sd) {
			return a, true
		}
	}
	return 0, false
}

// Classify maps every cell to its cheapest acceptable algorithm for each
// threshold, returning one classification slice per threshold (entries
// are -1 where no algorithm qualifies). This is the full Fig 12 series.
func Classify(results []CellResult, thresholds []float64) [][]int {
	out := make([][]int, len(thresholds))
	for ti, th := range thresholds {
		row := make([]int, len(results))
		for i, res := range results {
			if alg, ok := CheapestAcceptable(res, th); ok {
				row[i] = int(alg)
			} else {
				row[i] = -1
			}
		}
		out[ti] = row
	}
	return out
}
