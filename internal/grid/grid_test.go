package grid

import (
	"math"
	"testing"

	"repro/internal/fpu"
	"repro/internal/sum"
	"repro/internal/tree"
)

func TestGridBuilders(t *testing.T) {
	ks := []float64{1, 100, math.Inf(1)}
	drs := []int{0, 8}
	kdr := KDRGrid(1000, ks, drs)
	if len(kdr) != 6 {
		t.Fatalf("KDRGrid size %d", len(kdr))
	}
	for _, c := range kdr {
		if c.N != 1000 {
			t.Error("KDRGrid should fix n")
		}
	}
	ndr := NDRGrid([]int{10, 20}, 1, drs)
	if len(ndr) != 4 || ndr[0].Cond != 1 {
		t.Errorf("NDRGrid wrong: %v", ndr)
	}
	nk := NKGrid([]int{10, 20}, ks, 8)
	if len(nk) != 6 || nk[0].DynRange != 8 {
		t.Errorf("NKGrid wrong: %v", nk)
	}
}

func TestEvalCellShape(t *testing.T) {
	cell := CellSpec{N: 512, Cond: math.Inf(1), DynRange: 16}
	cfg := Config{Trials: 30, Shape: tree.Balanced, Seed: 1}
	res := EvalCell(cell, cfg, 7)
	if res.MeasuredDR != 16 {
		t.Errorf("measured dr = %d", res.MeasuredDR)
	}
	if !math.IsInf(res.MeasuredK, 1) {
		t.Errorf("measured k = %g, want Inf", res.MeasuredK)
	}
	// PR must be bitwise reproducible: stddev exactly 0, 1 distinct value.
	if res.StdDev[sum.PreroundedAlg] != 0 || res.Distinct[sum.PreroundedAlg] != 1 {
		t.Errorf("PR not reproducible in cell: sd=%g distinct=%d",
			res.StdDev[sum.PreroundedAlg], res.Distinct[sum.PreroundedAlg])
	}
	// ST must vary on an ill-conditioned wide-range cell.
	if res.Distinct[sum.StandardAlg] < 2 {
		t.Error("ST unexpectedly reproducible on hard cell")
	}
}

func TestStdDevLadderUnbalanced(t *testing.T) {
	// On serial (unbalanced) trees the compensated operators separate
	// clearly: sd(CP) <= sd(K) <= sd(ST).
	cell := CellSpec{N: 2048, Cond: math.Inf(1), DynRange: 24}
	res := EvalCell(cell, Config{Trials: 100, Shape: tree.Unbalanced, Seed: 11}, 11)
	st, k, cp := res.StdDev[sum.StandardAlg], res.StdDev[sum.KahanAlg], res.StdDev[sum.CompositeAlg]
	if cp > k || k > st {
		t.Errorf("stddev ladder violated: ST=%g K=%g CP=%g", st, k, cp)
	}
	if st == 0 {
		t.Error("ST should vary on this cell")
	}
}

func TestSweepOrderAndDeterminism(t *testing.T) {
	cells := KDRGrid(256, []float64{1, 1e4}, []int{0, 8})
	cfg := Config{Trials: 10, Shape: tree.Balanced, Seed: 5, Workers: 4}
	a := Sweep(cells, cfg)
	b := Sweep(cells, cfg)
	if len(a) != len(cells) {
		t.Fatalf("result count %d", len(a))
	}
	for i := range a {
		if a[i].Spec != cells[i] {
			t.Errorf("result %d out of order", i)
		}
		for _, alg := range sum.PaperAlgorithms {
			if a[i].StdDev[alg] != b[i].StdDev[alg] {
				t.Errorf("sweep not deterministic at cell %d alg %v", i, alg)
			}
		}
	}
}

func TestVariabilityGrowsWithK(t *testing.T) {
	// Fig 9's central observation: ST stddev grows strongly with k.
	cells := []CellSpec{
		{N: 1024, Cond: 1, DynRange: 8},
		{N: 1024, Cond: 1e6, DynRange: 8},
	}
	res := Sweep(cells, Config{Trials: 50, Shape: tree.Balanced, Seed: 2})
	low, high := res[0].RelStdDev[sum.StandardAlg], res[1].RelStdDev[sum.StandardAlg]
	if high <= low {
		t.Errorf("ST relative stddev did not grow with k: k=1 -> %g, k=1e6 -> %g", low, high)
	}
	if high < low*100 {
		t.Errorf("expected strong k dependence, got %gx", high/low)
	}
}

func TestCheapestAcceptable(t *testing.T) {
	res := CellResult{
		RelStdDev: map[sum.Algorithm]float64{
			sum.StandardAlg:   1e-10,
			sum.KahanAlg:      1e-13,
			sum.CompositeAlg:  1e-16,
			sum.PreroundedAlg: 0,
		},
	}
	if alg, ok := CheapestAcceptable(res, 1e-9); !ok || alg != sum.StandardAlg {
		t.Errorf("loose threshold: %v %v", alg, ok)
	}
	if alg, ok := CheapestAcceptable(res, 1e-12); !ok || alg != sum.KahanAlg {
		t.Errorf("mid threshold: %v %v", alg, ok)
	}
	if alg, ok := CheapestAcceptable(res, 1e-15); !ok || alg != sum.CompositeAlg {
		t.Errorf("tight threshold: %v %v", alg, ok)
	}
	if alg, ok := CheapestAcceptable(res, 0); !ok || alg != sum.PreroundedAlg {
		t.Errorf("zero threshold: %v %v", alg, ok)
	}
	none := CellResult{RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: 1}}
	if _, ok := CheapestAcceptable(none, 1e-20); ok {
		t.Error("nothing should qualify")
	}
}

func TestSeedStreamsDistinct(t *testing.T) {
	// Regression for the old seed^i*constant mixing: cell 0 received the
	// raw sweep seed and neighboring cells got correlated streams. Every
	// cell and every trial-block tree-sampling stream must be distinct,
	// and no cell may leak the unmixed base seed.
	for _, base := range []uint64{0, 1, 5, 0x9e3779b97f4a7c15} {
		seen := map[uint64]int{}
		for i := 0; i < 1000; i++ {
			s := cellSeed(base, i)
			if s == base {
				t.Errorf("seed %#x: cell %d got the unmixed sweep seed", base, i)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed %#x: cells %d and %d share stream %#x", base, prev, i, s)
			}
			seen[s] = i
		}
		// Trial-block streams live in their own domain: distinct from
		// each other and from every cell stream of the same base.
		for b := 0; b < 64; b++ {
			s := blockSeed(base, b)
			if s == base {
				t.Errorf("seed %#x: block %d got the unmixed cell seed", base, b)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("seed %#x: block %d collides with stream %d", base, b, prev)
			}
			seen[s] = -1 - b
		}
	}
}

func TestBlockStreamsProduceDistinctTrees(t *testing.T) {
	// The per-block RNGs must be independent streams, not shifted
	// copies: their leading outputs share no values.
	seen := map[uint64]int{}
	for b := 0; b < 8; b++ {
		rng := fpu.NewRNG(blockSeed(7, b))
		for j := 0; j < 64; j++ {
			v := rng.Uint64()
			if other, dup := seen[v]; dup {
				t.Fatalf("blocks %d and %d share RNG output %#x", other, b, v)
			}
			seen[v] = b
		}
	}
}

func TestAlgLaneAllAlgorithms(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	p := tree.IdentityPlan(tree.Balanced)
	for _, alg := range sum.Algorithms {
		if got := AlgLane(alg).Run(p, xs); got != 15 {
			t.Errorf("%v tree reduce = %g", alg, got)
		}
	}
}

func TestCheapestAcceptableDeterministicOrder(t *testing.T) {
	// All six registered algorithms qualify; the choice must be the
	// cheapest by CostRank (ties broken by id) on every call, immune to
	// Go's randomized map iteration order.
	res := CellResult{RelStdDev: map[sum.Algorithm]float64{}}
	for _, alg := range sum.Algorithms {
		res.RelStdDev[alg] = 0
	}
	for trial := 0; trial < 500; trial++ {
		alg, ok := CheapestAcceptable(res, 1e-9)
		if !ok || alg != sum.StandardAlg {
			t.Fatalf("trial %d: got %v ok=%v, want ST", trial, alg, ok)
		}
	}
	// Drop the two cheapest: the next by cost order must win, stably
	// (BN, now ranked directly after the plain loops).
	res.RelStdDev[sum.StandardAlg] = 1
	res.RelStdDev[sum.PairwiseAlg] = math.NaN()
	for trial := 0; trial < 500; trial++ {
		alg, ok := CheapestAcceptable(res, 1e-9)
		if !ok || alg != sum.BinnedAlg {
			t.Fatalf("trial %d: got %v ok=%v, want BN", trial, alg, ok)
		}
	}
	// Drop BN as well: the Kahan rung follows.
	res.RelStdDev[sum.BinnedAlg] = 1
	for trial := 0; trial < 500; trial++ {
		alg, ok := CheapestAcceptable(res, 1e-9)
		if !ok || alg != sum.KahanAlg {
			t.Fatalf("trial %d: got %v ok=%v, want K", trial, alg, ok)
		}
	}
}

func TestClassifyMonotoneInThreshold(t *testing.T) {
	// As the threshold tightens, the required algorithm's cost rank must
	// not decrease (Fig 12's progression).
	cells := KDRGrid(512, []float64{1, 1e3, math.Inf(1)}, []int{0, 16})
	res := Sweep(cells, Config{Trials: 40, Shape: tree.Balanced, Seed: 3})
	thresholds := []float64{1e-9, 1e-12, 1e-15, 0}
	classes := Classify(res, thresholds)
	if len(classes) != len(thresholds) {
		t.Fatal("classification row count")
	}
	for i := range cells {
		prevRank := -1
		for ti := range thresholds {
			c := classes[ti][i]
			rank := 1 << 30 // "nothing qualifies" is costliest
			if c >= 0 {
				rank = sum.Algorithm(c).CostRank()
			}
			if rank < prevRank {
				t.Errorf("cell %d: rank decreased when tightening threshold (%d -> %d)",
					i, prevRank, rank)
			}
			prevRank = rank
		}
	}
	// At threshold 0 only algorithms that were bitwise reproducible on
	// the cell qualify; PR always is, so every cell must classify, and
	// whatever cheaper algorithm wins must itself have been bitwise
	// reproducible over the sample (K or CP can legitimately achieve
	// that on easy cells).
	for i, c := range classes[len(thresholds)-1] {
		if c < 0 {
			t.Errorf("cell %d at t=0: nothing qualified, but PR always does", i)
			continue
		}
		if res[i].Distinct[sum.Algorithm(c)] != 1 {
			t.Errorf("cell %d: classified algorithm %v was not reproducible", i, sum.Algorithm(c))
		}
	}
}
