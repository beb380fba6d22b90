// Benchmarks regenerating every table and figure of the paper, plus the
// ablations called out in DESIGN.md §6. Run with:
//
//	go test -bench=. -benchmem
//
// The BenchmarkFig4_* family is the paper's Fig 4 measurement itself
// (per-algorithm cost of a local-sum + global-reduce cycle); the other
// BenchmarkFig* entries time the corresponding experiment drivers at
// Quick scale so the whole evaluation stays regenerable in one command.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/interval"
	"repro/internal/mpirt"
	"repro/internal/parallel"
	"repro/internal/reduce"
	"repro/internal/sum"
	"repro/internal/superacc"
	"repro/internal/tree"
)

var benchCfg = experiments.Config{Scale: experiments.Quick, Seed: 1}

// sink defeats dead-code elimination.
var sink float64

// ---- Table I ----

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TableI(benchCfg)
		if !res.AllMatch() {
			b.Fatal("Table I mismatch")
		}
	}
}

// ---- Fig 2: error magnitudes vs worst-case bounds ----

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(benchCfg)
		sink = res.Errors.Max
	}
}

// ---- Fig 3: cancellation tracking vs error ----

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(benchCfg)
		sink = res.RankCorrelation
	}
}

// ---- Fig 4: per-algorithm cost of local sum + global reduce ----
// These four benchmarks ARE the figure: compare their ns/op to see the
// ST < K < CP < PR cost ladder.

func benchmarkFig4(b *testing.B, alg sum.Algorithm) {
	const ranks = 8
	const n = 1 << 17
	chunks := make([][]float64, ranks)
	for i := range chunks {
		chunks[i] = gen.SumZeroSeries(n/ranks, 32, uint64(i)+1)
	}
	op := alg.Op()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mpirt.NewWorld(ranks, mpirt.Config{})
		var out float64
		if err := w.Run(func(r *mpirt.Rank) {
			local := op.FoldSlice(nil, chunks[r.ID])
			if st := r.Reduce(0, local, op, mpirt.Binomial, mpirt.FixedOrder); st != nil {
				out = op.Finalize(st)
			}
		}); err != nil {
			b.Fatal(err)
		}
		sink = out
	}
}

func BenchmarkFig4_ST(b *testing.B) { benchmarkFig4(b, sum.StandardAlg) }
func BenchmarkFig4_K(b *testing.B)  { benchmarkFig4(b, sum.KahanAlg) }
func BenchmarkFig4_CP(b *testing.B) { benchmarkFig4(b, sum.CompositeAlg) }
func BenchmarkFig4_PR(b *testing.B) { benchmarkFig4(b, sum.PreroundedAlg) }

// ---- Fig 5: penalties (the full driver computes the ratios) ----

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig45(benchCfg)
		if !res.LadderHolds(0.5) {
			b.Log("warning: cost ladder noisy in this run")
		}
		sink = res.Penalty(sum.PreroundedAlg)
	}
}

// ---- Fig 6: sensitivity of K/CP/PR to leaf assignment ----

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6(benchCfg)
		if !res.SpreadLadderHolds() {
			b.Fatal("Fig 6 ladder violated")
		}
	}
}

// ---- Fig 7: error boxplots across shapes and concurrency ----

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7(benchCfg)
		if !res.SpreadLadderHolds() {
			b.Fatal("Fig 7 ladder violated")
		}
	}
}

// ---- Figs 9-11: parameter-space grids ----

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(benchCfg)
		sink = res.Cell(res.Rows-1, res.Cols-1).RelStdDev[sum.StandardAlg]
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10(benchCfg)
		sink = res.Cell(0, 0).RelStdDev[sum.StandardAlg]
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11(benchCfg)
		sink = res.Cell(0, 0).RelStdDev[sum.StandardAlg]
	}
}

// ---- Fig 12: cheapest-acceptable-algorithm maps ----

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12(benchCfg)
		if !res.TighteningMonotone() {
			b.Fatal("Fig 12 monotonicity violated")
		}
	}
}

// ---- Raw algorithm throughput (context for Figs 4/5) ----

func benchmarkRawSum(b *testing.B, f func([]float64) float64) {
	xs := gen.SumZeroSeries(1<<20, 32, 7)
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f(xs)
	}
}

func BenchmarkRawSum_ST(b *testing.B)       { benchmarkRawSum(b, sum.Standard) }
func BenchmarkRawSum_Pairwise(b *testing.B) { benchmarkRawSum(b, sum.Pairwise) }
func BenchmarkRawSum_K(b *testing.B)        { benchmarkRawSum(b, sum.Kahan) }
func BenchmarkRawSum_Neumaier(b *testing.B) { benchmarkRawSum(b, sum.Neumaier) }
func BenchmarkRawSum_CP(b *testing.B)       { benchmarkRawSum(b, sum.Composite) }
func BenchmarkRawSum_PR(b *testing.B)       { benchmarkRawSum(b, sum.Prerounded) }
func BenchmarkRawSum_PRTwoPass(b *testing.B) {
	benchmarkRawSum(b, func(xs []float64) float64 { return sum.PreroundedTwoPass(xs, 3) })
}
func BenchmarkRawSum_Exact(b *testing.B) { benchmarkRawSum(b, superacc.Sum) }

// ---- Ablation: PR bin width (accuracy/capacity vs cost) ----

func benchmarkPRWidth(b *testing.B, w int) {
	xs := gen.SumZeroSeries(1<<18, 32, 9)
	cfg := sum.PRConfig{W: w, F: 4}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = sum.PreroundedWith(cfg, xs)
	}
}

func BenchmarkAblationPRWidth16(b *testing.B) { benchmarkPRWidth(b, 16) }
func BenchmarkAblationPRWidth26(b *testing.B) { benchmarkPRWidth(b, 26) }
func BenchmarkAblationPRWidth34(b *testing.B) { benchmarkPRWidth(b, 34) }

// ---- Ablation: PR fold count ----

func benchmarkPRFolds(b *testing.B, f int) {
	xs := gen.SumZeroSeries(1<<18, 32, 9)
	cfg := sum.PRConfig{W: 26, F: f}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = sum.PreroundedWith(cfg, xs)
	}
}

func BenchmarkAblationPRFolds1(b *testing.B) { benchmarkPRFolds(b, 1) }
func BenchmarkAblationPRFolds2(b *testing.B) { benchmarkPRFolds(b, 2) }
func BenchmarkAblationPRFolds4(b *testing.B) { benchmarkPRFolds(b, 4) }
func BenchmarkAblationPRFolds8(b *testing.B) { benchmarkPRFolds(b, 8) }

// ---- Ablation: Kahan vs Neumaier tree merges ----

func BenchmarkAblationKahanMerge(b *testing.B) {
	xs := gen.SumZeroSeries(1<<16, 32, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = reduce.Fold[sum.KState](sum.KahanMonoid{}, xs)
	}
}

func BenchmarkAblationNeumaierMerge(b *testing.B) {
	xs := gen.SumZeroSeries(1<<16, 32, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = reduce.Fold[sum.NState](sum.NeumaierMonoid{}, xs)
	}
}

// ---- Ablation: tree shapes at fixed algorithm ----

func benchmarkShape(b *testing.B, shape tree.Shape) {
	xs := gen.SumZeroSeries(1<<16, 32, 11)
	ex := tree.NewExecutor[float64](sum.STMonoid{})
	r := fpu.NewRNG(12)
	plans := make([]tree.Plan, 8)
	for i := range plans {
		plans[i] = tree.NewPlan(shape, len(xs), r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = ex.Run(plans[i%len(plans)], xs)
	}
}

func BenchmarkAblationShapeBalanced(b *testing.B)   { benchmarkShape(b, tree.Balanced) }
func BenchmarkAblationShapeUnbalanced(b *testing.B) { benchmarkShape(b, tree.Unbalanced) }
func BenchmarkAblationShapeBlocked(b *testing.B)    { benchmarkShape(b, tree.Blocked) }
func BenchmarkAblationShapeRandom(b *testing.B)     { benchmarkShape(b, tree.Random) }

// ---- Ablation: native batch local fold vs boxed per-element merging ----

func BenchmarkAblationLocalStateNative(b *testing.B) {
	xs := gen.SumZeroSeries(1<<16, 32, 13)
	op := sum.KahanAlg.Op()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = op.Finalize(op.FoldSlice(nil, xs))
	}
}

func BenchmarkAblationLocalStateBoxed(b *testing.B) {
	xs := gen.SumZeroSeries(1<<16, 32, 13)
	op := sum.KahanAlg.Op()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = op.Finalize(reduce.LeftFold(op, xs))
	}
}

// ---- Extension: topology-aware vs order-enforcing reduction ----

func BenchmarkExtTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.TopoExt(benchCfg)
		if !res.GrowsWithScale() {
			b.Fatal("topology advantage not growing")
		}
	}
}

// ---- Extension: interval summation (paper §III-B) ----

func BenchmarkExtInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.IntervalExt(benchCfg)
		if res.EnclosureHeld != res.Orders {
			b.Fatal("enclosure violated")
		}
	}
}

func BenchmarkRawSum_Interval(b *testing.B) {
	benchmarkRawSum(b, func(xs []float64) float64 { return interval.Sum(xs).Mid() })
}

// ---- Extension: shape-regime spreads (paper §V-B) ----

func BenchmarkExtShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.ShapesExt(benchCfg)
		if !res.ShapeVariabilityWorse() {
			b.Fatal("shape claim violated")
		}
	}
}

// ---- Extension: reproducible dot products ----

func benchmarkDot(b *testing.B, f func(a, bb []float64) float64) {
	r := fpu.NewRNG(14)
	n := 1 << 18
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Float64()*2 - 1
		y[i] = r.Float64()*2 - 1
	}
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = f(x, y)
	}
}

func BenchmarkDot_ST(b *testing.B) { benchmarkDot(b, sum.DotStandard) }
func BenchmarkDot_K(b *testing.B)  { benchmarkDot(b, sum.DotKahan) }
func BenchmarkDot_CP(b *testing.B) { benchmarkDot(b, sum.DotComposite) }
func BenchmarkDot_PR(b *testing.B) { benchmarkDot(b, sum.DotPrerounded) }

// ---- Extension: expansion (exact) summation vs PR ----

func BenchmarkRawSum_Expansion(b *testing.B) { benchmarkRawSum(b, sum.Expansion) }

// ---- Parallel engine: deterministic chunked reduction ----
// The _seq benchmarks run the identical plan single-threaded; compare
// ns/op against the _wN variants for the speedup (bounded by core
// count — on a single-core host wN ≈ seq, which doubles as a measure of
// the engine's scheduling overhead).

func benchmarkParallelSum(b *testing.B, alg sum.Algorithm, workers int) {
	xs := gen.SumZeroSeries(1<<20, 32, 7)
	cfg := parallel.Config{Workers: workers}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = parallel.Sum(alg, xs, cfg)
	}
}

func benchmarkParallelSumSeq(b *testing.B, alg sum.Algorithm) {
	xs := gen.SumZeroSeries(1<<20, 32, 7)
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = parallel.SeqSum(alg, xs, parallel.Config{})
	}
}

func BenchmarkParallelSum_ST_seq(b *testing.B) { benchmarkParallelSumSeq(b, sum.StandardAlg) }
func BenchmarkParallelSum_ST_w1(b *testing.B)  { benchmarkParallelSum(b, sum.StandardAlg, 1) }
func BenchmarkParallelSum_ST_w2(b *testing.B)  { benchmarkParallelSum(b, sum.StandardAlg, 2) }
func BenchmarkParallelSum_ST_w4(b *testing.B)  { benchmarkParallelSum(b, sum.StandardAlg, 4) }
func BenchmarkParallelSum_ST_w8(b *testing.B)  { benchmarkParallelSum(b, sum.StandardAlg, 8) }

func BenchmarkParallelSum_K_seq(b *testing.B) { benchmarkParallelSumSeq(b, sum.KahanAlg) }
func BenchmarkParallelSum_K_w4(b *testing.B)  { benchmarkParallelSum(b, sum.KahanAlg, 4) }

func BenchmarkParallelSum_CP_seq(b *testing.B) { benchmarkParallelSumSeq(b, sum.CompositeAlg) }
func BenchmarkParallelSum_CP_w4(b *testing.B)  { benchmarkParallelSum(b, sum.CompositeAlg, 4) }

func BenchmarkParallelSum_PR_seq(b *testing.B) { benchmarkParallelSumSeq(b, sum.PreroundedAlg) }
func BenchmarkParallelSum_PR_w4(b *testing.B)  { benchmarkParallelSum(b, sum.PreroundedAlg, 4) }

func BenchmarkParallelSum_BN_seq(b *testing.B) { benchmarkParallelSumSeq(b, sum.BinnedAlg) }
func BenchmarkParallelSum_BN_w1(b *testing.B)  { benchmarkParallelSum(b, sum.BinnedAlg, 1) }
func BenchmarkParallelSum_BN_w4(b *testing.B)  { benchmarkParallelSum(b, sum.BinnedAlg, 4) }

func benchmarkParallelExact(b *testing.B, workers int) {
	xs := gen.SumZeroSeries(1<<20, 32, 7)
	cfg := parallel.Config{Workers: workers}
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = parallel.ExactSum(xs, cfg)
	}
}

func BenchmarkParallelExactSum_w1(b *testing.B) { benchmarkParallelExact(b, 1) }
func BenchmarkParallelExactSum_w4(b *testing.B) { benchmarkParallelExact(b, 4) }

func BenchmarkExtParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.ParallelExt(benchCfg)
		if !res.AllBitwiseStable() {
			b.Fatal("parallel engine not bitwise stable")
		}
	}
}

// ---- Grid cell evaluation (the inner loop of Figs 9-12) ----

func BenchmarkGridCell(b *testing.B) {
	cell := grid.CellSpec{N: 4096, Cond: 1e6, DynRange: 16}
	cfg := grid.Config{Trials: 50, Shape: tree.Balanced}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := grid.EvalCell(cell, cfg, uint64(i))
		sink = res.StdDev[sum.StandardAlg]
	}
}

// ---- Extension: N-body trajectory reproducibility ----

func BenchmarkExtNBody(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.NBodyExt(benchCfg)
		if !res.TrustRestored() {
			b.Fatal("N-body trust claim violated")
		}
	}
}
