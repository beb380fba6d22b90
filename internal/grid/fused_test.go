package grid

import (
	"math"
	"testing"

	"repro/internal/bigref"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sum"
	"repro/internal/tree"
)

// bitsEqual compares two floats including NaN/Inf payloads.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameCellResult(t *testing.T, label string, a, b CellResult, algs []sum.Algorithm) {
	t.Helper()
	if a.Spec != b.Spec || a.MeasuredDR != b.MeasuredDR || !bitsEqual(a.MeasuredK, b.MeasuredK) {
		t.Errorf("%s: cell header differs: %+v vs %+v", label, a.Spec, b.Spec)
	}
	for _, alg := range algs {
		if !bitsEqual(a.StdDev[alg], b.StdDev[alg]) {
			t.Errorf("%s alg %v: StdDev %x != %x", label, alg,
				math.Float64bits(a.StdDev[alg]), math.Float64bits(b.StdDev[alg]))
		}
		if !bitsEqual(a.RelStdDev[alg], b.RelStdDev[alg]) {
			t.Errorf("%s alg %v: RelStdDev differs", label, alg)
		}
		if !bitsEqual(a.MaxErr[alg], b.MaxErr[alg]) {
			t.Errorf("%s alg %v: MaxErr differs", label, alg)
		}
		if a.Distinct[alg] != b.Distinct[alg] {
			t.Errorf("%s alg %v: Distinct %d != %d", label, alg, a.Distinct[alg], b.Distinct[alg])
		}
	}
}

func TestSweepBitwiseStableAcrossWorkerCounts(t *testing.T) {
	// The flat (cell, trial-block) queue must produce bitwise-identical
	// results at any worker count, including ragged Trials that leave the
	// final block short.
	cells := KDRGrid(257, []float64{1, 1e6, math.Inf(1)}, []int{0, 12})
	base := Config{
		Algorithms: sum.Algorithms, // all six lanes
		Trials:     33,
		TrialBlock: 8, // 5 blocks, last holds a single trial
		Shape:      tree.Balanced,
		Seed:       21,
		Workers:    1,
	}
	ref := Sweep(cells, base)
	for _, workers := range []int{2, 3, 8, 64} {
		cfg := base
		cfg.Workers = workers
		got := Sweep(cells, cfg)
		for i := range cells {
			sameCellResult(t, cells[i].String(), got[i], ref[i], base.Algorithms)
		}
	}
}

func TestSweepMatchesEvalCell(t *testing.T) {
	// The documented invariant: Sweep(cells, cfg)[i] ==
	// EvalCell(cells[i], cfg, cellSeed(cfg.Seed, i)).
	cells := KDRGrid(128, []float64{1, 1e4}, []int{0, 8})
	cfg := Config{Trials: 20, Shape: tree.Unbalanced, Seed: 9, Workers: 3}
	swept := Sweep(cells, cfg)
	for i, cell := range cells {
		single := EvalCell(cell, cfg, cellSeed(cfg.Seed, i))
		sameCellResult(t, cell.String(), swept[i], single, sum.PaperAlgorithms)
	}
}

// singleAlgRunners builds one independent single-algorithm executor per
// algorithm in algs, for replaying the sweep's shared plan stream
// through plain typed executors, without AlgLane or MultiExecutor.
func singleAlgRunners(algs []sum.Algorithm) []func(tree.Plan, []float64) float64 {
	out := make([]func(tree.Plan, []float64) float64, len(algs))
	for i, alg := range algs {
		switch alg {
		case sum.StandardAlg, sum.PairwiseAlg:
			out[i] = tree.NewExecutor[float64](sum.STMonoid{}).Run
		case sum.KahanAlg:
			out[i] = tree.NewExecutor[sum.KState](sum.KahanMonoid{}).Run
		case sum.NeumaierAlg:
			out[i] = tree.NewExecutor[sum.NState](sum.NeumaierMonoid{}).Run
		case sum.CompositeAlg:
			out[i] = tree.NewExecutor(sum.CPMonoid{}).Run
		case sum.PreroundedAlg:
			out[i] = tree.NewExecutor[sum.PRState](sum.DefaultPRConfig().Monoid()).Run
		}
	}
	return out
}

func TestFusedMatchesSingleExecutorReplay(t *testing.T) {
	// Grid-level equivalence: replaying the fused engine's per-block plan
	// streams through plain single-algorithm executors, observing into
	// one ErrorStream per algorithm in the same block order, reproduces
	// EvalCell's fused statistics bit for bit — the lockstep walk changes
	// the schedule, never the arithmetic.
	cell := CellSpec{N: 300, Cond: 1e5, DynRange: 14}
	for _, shape := range tree.Shapes {
		cfg := Config{Trials: 25, TrialBlock: 8, Shape: shape, Seed: 13}
		seed := cellSeed(cfg.Seed, 0)
		fused := EvalCell(cell, cfg.withDefaults(), seed)

		xs := gen.Spec{N: cell.N, Cond: cell.Cond, DynRange: cell.DynRange, Seed: seed}.Generate()
		ref := bigref.SumFloat64(xs)
		algs := sum.PaperAlgorithms
		runners := singleAlgRunners(algs)
		agg := make([]*metrics.ErrorStream, len(algs))
		for ai := range agg {
			agg[ai] = metrics.NewErrorStream(ref, cfg.Trials)
		}
		cfgd := cfg.withDefaults()
		for b := 0; b < cfgd.blocks(); b++ {
			lo := b * cfgd.TrialBlock
			hi := lo + cfgd.TrialBlock
			if hi > cfgd.Trials {
				hi = cfgd.Trials
			}
			block := make([]*metrics.ErrorStream, len(algs))
			for ai := range block {
				block[ai] = metrics.NewErrorStream(ref, hi-lo)
			}
			ps := tree.NewPlanSource(cfgd.Shape, len(xs), blockSeed(seed, b))
			for tr := lo; tr < hi; tr++ {
				p := ps.Next().Clone()
				for ai, run := range runners {
					block[ai].Observe(run(p, xs))
				}
			}
			for ai := range agg {
				agg[ai].Merge(block[ai])
			}
		}
		for ai, alg := range algs {
			if !bitsEqual(fused.StdDev[alg], agg[ai].StdDev()) {
				t.Errorf("%v %v: fused StdDev %x != replay %x", shape, alg,
					math.Float64bits(fused.StdDev[alg]), math.Float64bits(agg[ai].StdDev()))
			}
			if !bitsEqual(fused.MaxErr[alg], agg[ai].Max()) {
				t.Errorf("%v %v: fused MaxErr != replay", shape, alg)
			}
			if fused.Distinct[alg] != agg[ai].Distinct() {
				t.Errorf("%v %v: fused Distinct %d != replay %d", shape, alg,
					fused.Distinct[alg], agg[ai].Distinct())
			}
		}
	}
}

func TestEnginesAgreeQualitatively(t *testing.T) {
	// The science the sweep must show on a hard cell: reproducible
	// algorithms stay reproducible, and the Fig 9 variability ordering
	// holds.
	cell := CellSpec{N: 1024, Cond: math.Inf(1), DynRange: 20}
	res := EvalCell(cell, Config{Trials: 60, Shape: tree.Balanced, Seed: 6}, 99)
	if res.Distinct[sum.PreroundedAlg] != 1 || res.StdDev[sum.PreroundedAlg] != 0 {
		t.Error("PR not reproducible")
	}
	if res.StdDev[sum.CompositeAlg] > res.StdDev[sum.StandardAlg] {
		t.Errorf("CP (%g) noisier than ST (%g)",
			res.StdDev[sum.CompositeAlg], res.StdDev[sum.StandardAlg])
	}
	if res.Distinct[sum.StandardAlg] < 2 {
		t.Error("ST unexpectedly reproducible on hard cell")
	}
}

func TestTrialBlockIsPartOfExperimentDefinition(t *testing.T) {
	// Changing TrialBlock changes the sampled trees (block boundaries
	// seed the plan streams) — configs differing only in TrialBlock are
	// different experiments, while Workers never is. Pin both halves.
	cell := CellSpec{N: 512, Cond: 1e6, DynRange: 16}
	mk := func(block int) CellResult {
		return EvalCell(cell, Config{Trials: 64, TrialBlock: block, Shape: tree.Balanced, Seed: 30}, 77)
	}
	a, b := mk(16), mk(64)
	if bitsEqual(a.StdDev[sum.StandardAlg], b.StdDev[sum.StandardAlg]) {
		t.Error("different TrialBlock produced identical ST statistics — block seeding is broken")
	}
}
