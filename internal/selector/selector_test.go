package selector

import (
	"math"
	"testing"

	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpirt"
	"repro/internal/parallel"
	"repro/internal/sum"
	"repro/internal/tree"
)

func TestProfileBasics(t *testing.T) {
	xs := []float64{1, 2, -4, 0, 256}
	p := ProfileOf(xs)
	if p.N != 5 {
		t.Errorf("N = %d", p.N)
	}
	if got := p.Sum.Float64(); got != 255 {
		t.Errorf("sum = %g", got)
	}
	if got := p.SumAbs.Float64(); got != 263 {
		t.Errorf("sumabs = %g", got)
	}
	if p.DynRange() != 8 {
		t.Errorf("dr = %d, want 8", p.DynRange())
	}
	if p.SameSign() {
		t.Error("mixed signs not detected")
	}
	if k := p.Cond(); math.Abs(k-263.0/255.0) > 1e-12 {
		t.Errorf("k = %g", k)
	}
}

func TestProfileMatchesMetrics(t *testing.T) {
	for _, spec := range []gen.Spec{
		{N: 1000, Cond: 1, DynRange: 16, Seed: 1},
		{N: 1000, Cond: 1e5, DynRange: 8, Seed: 2},
		{N: 1000, Cond: math.Inf(1), DynRange: 32, Seed: 3},
	} {
		xs := spec.Generate()
		p := ProfileOf(xs)
		if got, want := p.DynRange(), metrics.DynRange(xs); got != want {
			t.Errorf("%v: profile dr %d != metrics %d", spec, got, want)
		}
		pk, mk := p.Cond(), metrics.CondNumber(xs)
		switch {
		case math.IsInf(mk, 1):
			if !math.IsInf(pk, 1) {
				t.Errorf("%v: profile missed full cancellation: k=%g", spec, pk)
			}
		default:
			if math.Abs(math.Log10(pk)-math.Log10(mk)) > 0.01 {
				t.Errorf("%v: profile k %g vs exact %g", spec, pk, mk)
			}
		}
	}
}

func TestProfileMergeEquivalence(t *testing.T) {
	xs := gen.Spec{N: 999, Cond: 1e3, DynRange: 24, Seed: 4}.Generate()
	whole := ProfileOf(xs)
	merged := ProfileOf(xs[:300]).Merge(ProfileOf(xs[300:]))
	if whole.N != merged.N || whole.Pos != merged.Pos || whole.Neg != merged.Neg {
		t.Error("counts differ after merge")
	}
	if whole.DynRange() != merged.DynRange() {
		t.Error("dynamic range differs after merge")
	}
	if math.Abs(whole.Cond()-merged.Cond()) > 1e-6*whole.Cond() {
		t.Errorf("condition estimate differs: %g vs %g", whole.Cond(), merged.Cond())
	}
}

func TestProfileEmptyAndZeros(t *testing.T) {
	var p Profile
	if p.Cond() != 1 || p.DynRange() != 0 || !p.SameSign() {
		t.Error("empty profile defaults wrong")
	}
	z := ProfileOf([]float64{0, 0})
	if z.N != 2 || z.Cond() != 1 || z.HasNonzero {
		t.Error("zero-only profile wrong")
	}
	e := (Profile{}).Merge(ProfileOf([]float64{3}))
	if e.N != 1 || !e.HasNonzero {
		t.Error("merge with empty lost data")
	}
}

func TestHeuristicLadder(t *testing.T) {
	hp := NewHeuristicPolicy()
	p := ProfileOf(gen.Spec{N: 4096, Cond: 1e4, DynRange: 16, Seed: 5}.Generate())
	st := hp.Predict(sum.StandardAlg, p)
	k := hp.Predict(sum.KahanAlg, p)
	cp := hp.Predict(sum.CompositeAlg, p)
	pr := hp.Predict(sum.PreroundedAlg, p)
	if !(st > k && k > cp && cp > pr) {
		t.Errorf("prediction ladder violated: ST=%g K=%g CP=%g PR=%g", st, k, cp, pr)
	}
	if pr != 0 {
		t.Errorf("PR prediction must be 0, got %g", pr)
	}
}

func TestHeuristicSelectionByTolerance(t *testing.T) {
	s := New(0)
	// Well-conditioned data with a loose tolerance: cheapest wins.
	easy := gen.Spec{N: 1024, Cond: 1, DynRange: 4, Seed: 6}.Generate()
	s.Req.Tolerance = 1e-9
	if alg := s.Decide(ProfileOf(easy)).Alg; alg != sum.StandardAlg {
		t.Errorf("easy data should pick ST, got %v", alg)
	}
	// Same data, bitwise requirement: the cheapest reproducible rung,
	// now BN.
	s.Req.Tolerance = 0
	if alg := s.Decide(ProfileOf(easy)).Alg; alg != sum.BinnedAlg {
		t.Errorf("t=0 should pick BN, got %v", alg)
	}
	// Fully cancelling data: predictions blow up to Inf -> the
	// reproducible rung for any finite tolerance.
	zero := gen.SumZeroSeries(1024, 16, 7)
	s.Req.Tolerance = 1e-6
	if alg := s.Decide(ProfileOf(zero)).Alg; alg != sum.BinnedAlg {
		t.Errorf("k=inf should pick BN, got %v", alg)
	}
}

func TestSelectionMonotoneInTolerance(t *testing.T) {
	s := New(0)
	xs := gen.Spec{N: 8192, Cond: 1e5, DynRange: 16, Seed: 8}.Generate()
	prevRank := -1
	for _, tol := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0} {
		s.Req.Tolerance = tol
		alg := s.Decide(ProfileOf(xs)).Alg
		if r := alg.CostRank(); r < prevRank {
			t.Errorf("tightening tolerance to %g cheapened the algorithm to %v", tol, alg)
		} else {
			prevRank = r
		}
	}
}

func TestSelectorSumUsesChoice(t *testing.T) {
	s := New(1e-9)
	xs := gen.Spec{N: 512, Cond: 1, DynRange: 2, Seed: 9}.Generate()
	got, sel := s.SelectAndSum(xs)
	if sel.Alg != sum.StandardAlg {
		t.Errorf("alg = %v", sel.Alg)
	}
	if got != sum.Standard(xs) {
		t.Errorf("sum %g != ST sum", got)
	}
}

func TestReduceTreeRespectsChoice(t *testing.T) {
	s := New(0) // bitwise: a reproducible rung
	xs := gen.SumZeroSeries(2048, 24, 10)
	r := fpu.NewRNG(11)
	alg := s.Decide(ProfileOf(xs)).Alg
	if !alg.Reproducible() {
		t.Fatalf("alg = %v", alg)
	}
	vals := map[float64]bool{}
	for i := 0; i < 10; i++ {
		vals[grid.AlgLane(alg).Run(tree.NewPlan(tree.Random, len(xs), r), xs)] = true
	}
	if len(vals) != 1 {
		t.Errorf("bitwise selection produced %d distinct results", len(vals))
	}
}

func TestCalibratedPolicySelects(t *testing.T) {
	pol := Calibrate(CalibrationConfig{
		Ns:     []int{512},
		Ks:     []float64{1, 1e4, 1e8},
		DRs:    []int{0, 16},
		Trials: 20,
		Seed:   12,
	})
	if len(pol.Cells()) != 6 {
		t.Fatalf("calibration table size %d", len(pol.Cells()))
	}
	// Easy profile, loose tolerance: cheap algorithm.
	easy := ProfileOf(gen.Spec{N: 512, Cond: 1, DynRange: 0, Seed: 13}.Generate())
	alg, _ := pol.Select(easy, Requirement{Tolerance: 1e-9})
	if alg.CostRank() > sum.KahanAlg.CostRank() {
		t.Errorf("easy profile chose %v", alg)
	}
	// Hard profile, tight tolerance: expensive algorithm.
	hard := ProfileOf(gen.Spec{N: 512, Cond: 1e8, DynRange: 16, Seed: 14}.Generate())
	algH, _ := pol.Select(hard, Requirement{Tolerance: 1e-14})
	if algH.CostRank() < sum.CompositeAlg.CostRank() {
		t.Errorf("hard profile chose %v", algH)
	}
	// Tolerance 0 must always yield a bitwise-reproducible choice.
	algZ, pred := pol.Select(hard, Requirement{Tolerance: 0})
	if pred != 0 {
		t.Errorf("t=0 prediction %g", pred)
	}
	if algZ != sum.PreroundedAlg && algZ != sum.CompositeAlg {
		t.Errorf("t=0 chose %v", algZ)
	}
}

// TestCalibratedToleranceZeroRequiresReproducible pins the bitwise
// contract of the nearest-neighbour table: a cell that measured zero
// spread for CP must not make tolerance 0 pick CP, while a nonzero
// tolerance keeps the measured pick.
func TestCalibratedToleranceZeroRequiresReproducible(t *testing.T) {
	pol := NewCalibratedPolicy([]grid.CellResult{{
		Spec: grid.CellSpec{N: 1024, Cond: 1, DynRange: 8}, MeasuredK: 1, MeasuredDR: 8,
		RelStdDev: map[sum.Algorithm]float64{
			sum.CompositeAlg: 0, // measured zero, not a bitwise guarantee
			sum.StandardAlg:  1e-15,
		},
	}}, 4)
	p := ProfileOf(gen.Spec{N: 1024, Cond: 1, DynRange: 8, Seed: 801}.Generate())
	if alg, pred := pol.Select(p, Requirement{Tolerance: 0}); !alg.Reproducible() || pred != 0 {
		t.Errorf("tolerance 0 selected %v (pred %g), want a reproducible algorithm", alg, pred)
	}
	if alg, _ := pol.Select(p, Requirement{Tolerance: 1e-15}); alg != sum.CompositeAlg {
		t.Errorf("tolerance 1e-15 selected %v, want CP (measured cheapest that qualifies)", alg)
	}
}

func TestProbabilisticToleranceZeroRequiresReproducible(t *testing.T) {
	// On tiny-magnitude data the bound arithmetic underflows to a zero
	// ST estimate, which is no bitwise guarantee: two orders of the same
	// multiset must both get BN and the same bits.
	s, u := 0x1p-600, 0x1p-653
	sel := &Selector{Policy: NewProbabilisticPolicy(0)}
	a, selA := sel.SelectAndSum([]float64{s, u, u})
	b, selB := sel.SelectAndSum([]float64{u, u, s})
	if selA.Alg != sum.BinnedAlg || selB.Alg != sum.BinnedAlg {
		t.Errorf("tolerance 0 served %v and %v, want BN", selA.Alg, selB.Alg)
	}
	if fbits(a) != fbits(b) {
		t.Errorf("tolerance 0 bits depend on order: %x vs %x", fbits(a), fbits(b))
	}
	pol := NewProbabilisticPolicy(0)
	for _, xs := range [][]float64{{s, u, u}, {0x1p-540, 0x1p-541}, {0x1p-1074, 0x3p-1074}} {
		if alg, pred := pol.Select(ProfileOf(xs), Requirement{}); !alg.Reproducible() || pred != 0 {
			t.Errorf("%v: tolerance 0 selected %v (pred %g), want a reproducible algorithm", xs, alg, pred)
		}
	}
	// Degenerate profiles admit one result under every order; ST stays.
	for _, xs := range [][]float64{{s}, {0, 0}} {
		if alg, _ := pol.Select(ProfileOf(xs), Requirement{}); alg != sum.StandardAlg {
			t.Errorf("%v: degenerate profile selected %v, want ST", xs, alg)
		}
	}
}

func TestCalibratedFallsBackWhenEmpty(t *testing.T) {
	pol := NewCalibratedPolicy(nil, 0)
	p := ProfileOf([]float64{1, 2, 3})
	alg, _ := pol.Select(p, Requirement{Tolerance: 1e-9})
	if !alg.Valid() {
		t.Error("fallback selection invalid")
	}
}

func TestAdaptiveReduceAgreementAndResult(t *testing.T) {
	xs := gen.Spec{N: 8192, Cond: 1, DynRange: 8, Seed: 15}.Generate()
	const ranks = 8
	per := len(xs) / ranks
	s := New(1e-9)
	w := mpirt.NewWorld(ranks, mpirt.Config{})
	algs := make([]sum.Algorithm, ranks)
	var got float64
	err := w.Run(func(r *mpirt.Rank) {
		lo, hi := r.ID*per, (r.ID+1)*per
		v, alg, ok := AdaptiveReduce(r, 0, xs[lo:hi], s, mpirt.Binomial, mpirt.FixedOrder)
		algs[r.ID] = alg
		if ok {
			got = v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < ranks; i++ {
		if algs[i] != algs[0] {
			t.Fatalf("ranks disagreed on algorithm: %v vs %v", algs[i], algs[0])
		}
	}
	if algs[0] != sum.StandardAlg {
		t.Errorf("well-conditioned data chose %v", algs[0])
	}
	ref := metrics.AbsSum(xs) // same-sign data: sum == abssum
	if math.Abs(got-ref) > 1e-6*ref {
		t.Errorf("adaptive sum %g vs %g", got, ref)
	}
}

func TestAdaptiveReduceBitwiseUnderNondeterminism(t *testing.T) {
	xs := gen.SumZeroSeries(4096, 24, 16)
	const ranks = 16
	per := len(xs) / ranks
	s := New(0)
	results := map[float64]bool{}
	for trial := 0; trial < 5; trial++ {
		w := mpirt.NewWorld(ranks, mpirt.Config{Jitter: 100000, Seed: uint64(trial)})
		var got float64
		err := w.Run(func(r *mpirt.Rank) {
			lo, hi := r.ID*per, (r.ID+1)*per
			if v, alg, ok := AdaptiveReduce(r, 0, xs[lo:hi], s, mpirt.Binomial, mpirt.ArrivalOrder); ok {
				if !alg.Reproducible() {
					panic("t=0 must select a reproducible algorithm")
				}
				got = v
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		results[got] = true
	}
	if len(results) != 1 {
		t.Errorf("adaptive t=0 reduce produced %d distinct results", len(results))
	}
}

// TestAdaptiveReducePinnedBits pins AdaptiveReduce's result bits for
// every algorithm it can pick (forced with a Static policy) on four
// fixed inputs over 8 ranks. The values were recorded while the local
// phase still ran each algorithm's own streaming loop; the batch
// Op.FoldSlice local phase that replaced it must reproduce them.
func TestAdaptiveReducePinnedBits(t *testing.T) {
	sets := []struct {
		name string
		xs   []float64
		want map[sum.Algorithm]uint64
	}{
		{"benign", gen.Spec{N: 4096, Cond: 1, DynRange: 8, Seed: 15}.Generate(), map[sum.Algorithm]uint64{
			sum.StandardAlg: 0x4115952c458d0fdb, sum.PairwiseAlg: 0x4115952c458d0fdb,
			sum.BinnedAlg: 0x4115952c458d0fdc, sum.KahanAlg: 0x4115952c458d0fdc, sum.NeumaierAlg: 0x4115952c458d0fdc,
			sum.CompositeAlg: 0x4115952c458d0fdc, sum.PreroundedAlg: 0x4115952c458d0fdc,
		}},
		{"illcond", gen.Spec{N: 4096, Cond: 1e12, DynRange: 30, Seed: 16}.Generate(), map[sum.Algorithm]uint64{
			sum.StandardAlg: 0x3fd9885800000000, sum.PairwiseAlg: 0x3fd9885800000000,
			sum.BinnedAlg: 0x3fd9885400000000, sum.KahanAlg: 0x3fd9885800000000, sum.NeumaierAlg: 0x3fd9885400000000,
			sum.CompositeAlg: 0x3fd9885400000000, sum.PreroundedAlg: 0x3fd9885400000000,
		}},
		{"sumzero", gen.SumZeroSeries(4096, 24, 16), map[sum.Algorithm]uint64{
			sum.StandardAlg: 0xbe9b000000000000, sum.PairwiseAlg: 0xbe9b000000000000,
			sum.BinnedAlg: 0, sum.KahanAlg: 0x3e50000000000000, sum.NeumaierAlg: 0,
			sum.CompositeAlg: 0, sum.PreroundedAlg: 0,
		}},
		{"wide", gen.Spec{N: 4099, Cond: 1e4, DynRange: 40, Seed: 17}.Generate(), map[sum.Algorithm]uint64{
			sum.StandardAlg: 0x421e956513551580, sum.PairwiseAlg: 0x421e956513551580,
			sum.BinnedAlg: 0x421e956513550380, sum.KahanAlg: 0x421e956513550380, sum.NeumaierAlg: 0x421e956513550380,
			sum.CompositeAlg: 0x421e956513550380, sum.PreroundedAlg: 0x421e956513550380,
		}},
	}
	const ranks = 8
	for _, set := range sets {
		for _, alg := range sum.Algorithms {
			s := &Selector{Policy: Static{Alg: alg}}
			var got float64
			var picked sum.Algorithm
			w := mpirt.NewWorld(ranks, mpirt.Config{})
			err := w.Run(func(r *mpirt.Rank) {
				lo, hi := r.ID*len(set.xs)/ranks, (r.ID+1)*len(set.xs)/ranks
				if v, a, ok := AdaptiveReduce(r, 0, set.xs[lo:hi], s, mpirt.Binomial, mpirt.FixedOrder); ok {
					got, picked = v, a
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if picked != alg {
				t.Fatalf("%s: Static{%v} picked %v", set.name, alg, picked)
			}
			if want := set.want[alg]; math.Float64bits(got) != want {
				t.Errorf("%s/%v: AdaptiveReduce %#016x, pinned %#016x", set.name, alg, math.Float64bits(got), want)
			}
		}
	}
}

func TestHeuristicPredictAllAlgorithms(t *testing.T) {
	hp := NewHeuristicPolicy()
	p := ProfileOf(gen.Spec{N: 4096, Cond: 100, DynRange: 8, Seed: 60}.Generate())
	// Pairwise must predict less variability than serial ST.
	if hp.Predict(sum.PairwiseAlg, p) >= hp.Predict(sum.StandardAlg, p) {
		t.Error("pairwise should beat ST")
	}
	// Neumaier matches Kahan at first order.
	if hp.Predict(sum.NeumaierAlg, p) != hp.Predict(sum.KahanAlg, p) {
		t.Error("Neumaier prediction should match Kahan")
	}
	// Unknown algorithm predicts +Inf.
	if !math.IsInf(hp.Predict(sum.Algorithm(99), p), 1) {
		t.Error("invalid algorithm should predict Inf")
	}
	// An empty reduction admits exactly one result: variability 0
	// (the degenerate-profile table tests in policy_degenerate_test.go
	// pin the full n ∈ {0,1} / all-zero matrix).
	var empty Profile
	if v := hp.Predict(sum.StandardAlg, empty); v != 0 {
		t.Errorf("empty profile prediction %g, want 0", v)
	}
}

func TestProfileNonFinitePoison(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var p Profile
		p = p.Add(1.5)
		p = p.Add(bad)
		p = p.Add(-2.25)
		if !p.NonFinite {
			t.Errorf("Add(%v) did not poison the profile", bad)
		}
		if p.N != 3 {
			t.Errorf("poisoned profile lost the count: N=%d", p.N)
		}
		if !math.IsInf(p.Cond(), 1) {
			t.Errorf("poisoned Cond() = %g, want +Inf", p.Cond())
		}
		if p.Sum.IsNaN() || p.SumAbs.IsNaN() {
			t.Errorf("non-finite value leaked into the dd sums: %v / %v", p.Sum, p.SumAbs)
		}
	}
}

func TestProfileNonFiniteMergePropagates(t *testing.T) {
	clean := ProfileOf([]float64{1, 2, 3})
	var dirty Profile
	dirty = dirty.Add(math.NaN())
	for _, merged := range []Profile{clean.Merge(dirty), dirty.Merge(clean)} {
		if !merged.NonFinite {
			t.Error("Merge dropped the poison flag")
		}
		if !math.IsInf(merged.Cond(), 1) {
			t.Errorf("merged poisoned Cond() = %g", merged.Cond())
		}
	}
	if clean.Merge(clean).NonFinite {
		t.Error("clean merge spuriously poisoned")
	}
}

func TestProfileOfDetectsNonFinite(t *testing.T) {
	p := ProfileOf([]float64{1, math.Inf(-1), 2})
	if !p.NonFinite {
		t.Fatal("ProfileOf missed an infinity")
	}
	if s := p.String(); s == "" {
		t.Error("empty poisoned String")
	}
}

func TestProfileOfParallelWorkerStability(t *testing.T) {
	xs := gen.Spec{N: 50000, Cond: 1e6, DynRange: 24, Seed: 9}.Generate()
	cfg := parallel.Config{ChunkSize: 1 << 10, Workers: 1}
	ref := ProfileOfParallel(xs, cfg)
	for w := 2; w <= 8; w++ {
		cfg.Workers = w
		p := ProfileOfParallel(xs, cfg)
		if p != ref {
			t.Errorf("workers=%d profile %+v != workers=1 profile %+v", w, p, ref)
		}
	}
	// The chunked profile must agree with the single-pass profile on the
	// exactly-representable fields (the dd sums may differ in the last
	// few bits of the tail; the headline condition number must agree to
	// rounding).
	single := ProfileOf(xs)
	if ref.N != single.N || ref.Pos != single.Pos || ref.Neg != single.Neg ||
		ref.MinExp != single.MinExp || ref.MaxExp != single.MaxExp {
		t.Errorf("chunked profile counts diverge: %+v vs %+v", ref, single)
	}
	if k1, k2 := ref.Cond(), single.Cond(); math.Abs(k1-k2) > 1e-9*k2 {
		t.Errorf("chunked Cond %g vs single-pass %g", k1, k2)
	}
}

func TestProfileOfParallelNonFinite(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 1
	}
	xs[7777] = math.Inf(-1)
	p := ProfileOfParallel(xs, parallel.Config{ChunkSize: 512, Workers: 4})
	if !p.NonFinite || !math.IsInf(p.Cond(), 1) {
		t.Errorf("parallel profile missed non-finite poison: %+v", p)
	}
}
