package repro_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/fpu"
	"repro/internal/selector"
	"repro/internal/superacc"
)

func TestPublicSumAndExactSum(t *testing.T) {
	xs := []float64{1e16, 1, -1e16}
	if got := repro.ExactSum(xs); got != 1 {
		t.Errorf("ExactSum = %g, want 1", got)
	}
	// Non-finite operands follow IEEE rules: any NaN, or both Inf signs,
	// gives NaN; otherwise the Inf's sign wins.
	inf := math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{inf, 1}, inf},
		{[]float64{1, -inf, 2}, -inf},
		{[]float64{inf, inf}, inf},
		{[]float64{inf, -inf}, math.NaN()},
		{[]float64{1, math.NaN()}, math.NaN()},
		{[]float64{inf, math.NaN()}, math.NaN()},
	} {
		got := repro.ExactSum(c.xs)
		if math.IsNaN(got) != math.IsNaN(c.want) || (!math.IsNaN(got) && got != c.want) {
			t.Errorf("ExactSum(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if got := repro.Sum(repro.Composite, xs); got != 1 {
		t.Errorf("Composite sum = %g, want 1", got)
	}
	if got := repro.Sum(repro.Standard, xs); got != 0 {
		t.Errorf("Standard sum = %g (expected absorption to 0)", got)
	}
}

// TestExactSumMatchesOracle pins the public exact sum, served by BN,
// against the superaccumulator oracle, which shares no code with it:
// bit for bit on random sets spanning the whole double range and on
// the overflow, subnormal and signed-zero edges.
func TestExactSumMatchesOracle(t *testing.T) {
	maxF, negZero := math.MaxFloat64, math.Copysign(0, -1)
	sets := [][]float64{
		nil,
		{maxF, maxF, -maxF},
		{1e308, 1e308, -1e308, -1e308, 1},
		{maxF, maxF},
		{0x1p-1074, 0x1p-1074},
		{0x1p-1074, -0x1p-1073},
		{0x1.fffffffffffffp-1023, 0x1p-1074},
		{negZero},
		{negZero, negZero, negZero},
		{0, negZero, negZero},
		{negZero, 1, -1},
	}
	r := fpu.NewRNG(28)
	for i := 0; i < 2000; i++ {
		xs := make([]float64, 1+r.Intn(64))
		for j := range xs {
			xs[j] = math.Ldexp(r.Float64()*2-1, r.Intn(2098)-1074)
		}
		sets = append(sets, xs)
	}
	for _, xs := range sets {
		if got, want := repro.ExactSum(xs), superacc.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ExactSum(%v) = %g, oracle %g", xs, got, want)
		}
	}
}

func TestPublicRuntime(t *testing.T) {
	rt := repro.New(0)
	xs := []float64{3.5, -3.5, 1.25, 2.75}
	total, rep := rt.Sum(xs)
	if total != 4 {
		t.Errorf("runtime sum = %g", total)
	}
	if rep.Algorithm != repro.Binned {
		t.Errorf("t=0 chose %v, want the binned reproducible rung", rep.Algorithm)
	}
}

func TestPublicProfileAndMetrics(t *testing.T) {
	xs := []float64{500.5, -499.5}
	if k := repro.CondNumber(xs); k != 1000 {
		t.Errorf("CondNumber = %g", k)
	}
	if dr := repro.DynRange([]float64{1, 256}); dr != 8 {
		t.Errorf("DynRange = %d", dr)
	}
	p := repro.ProfileOf(xs)
	if math.Abs(p.Cond()-1000) > 1e-9 {
		t.Errorf("profile k = %g", p.Cond())
	}
}

func TestPublicAccumulators(t *testing.T) {
	for _, alg := range repro.Algorithms {
		acc := alg.NewAccumulator()
		for i := 0; i < 100; i++ {
			acc.Add(0.25)
		}
		if got := acc.Sum(); got != 25 {
			t.Errorf("%v accumulator = %g", alg, got)
		}
	}
	if len(repro.PaperAlgorithms) != 4 {
		t.Error("paper algorithm set wrong")
	}
}

func TestPublicParallelSum(t *testing.T) {
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = float64(i%7) * 0.125
	}
	for _, alg := range repro.Algorithms {
		ref := repro.ParallelSum(alg, xs, 1)
		for _, w := range []int{2, 4, 8} {
			got := repro.ParallelSum(alg, xs, w)
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("%v: %d workers gave %x, 1 worker gave %x",
					alg, w, math.Float64bits(got), math.Float64bits(ref))
			}
		}
	}
	exact := repro.ExactSum(xs)
	for w := 1; w <= 8; w++ {
		if got := repro.ParallelSum(repro.Binned, xs, w); math.Float64bits(got) != math.Float64bits(exact) {
			t.Errorf("ParallelSum(Binned, %d workers) = %g, ExactSum = %g", w, got, exact)
		}
	}
}

func TestPublicSelectAndSum(t *testing.T) {
	xs := []float64{3.5, -3.5, 1.25, 2.75}
	got, rep := repro.New(1e-9, repro.WithPolicy(selector.NewHeuristicPolicy())).Sum(xs)
	if got != 4 || rep.Algorithm != repro.Standard || rep.Profile.N != 4 || rep.Profile.Cond() != 2.75 {
		t.Errorf("selection = %g/%v for %v, want 4 by ST for k=2.75", got, rep.Algorithm, rep.Profile)
	}
	// Without a policy the same request gets the exact sum, unprofiled.
	got, rep = repro.New(1e-9).Sum(xs)
	if got != 4 || rep.Algorithm != repro.Binned || rep.Profile != (repro.Profile{N: 4}) {
		t.Errorf("default = %g/%v for %v, want 4 by BN, profile skipped", got, rep.Algorithm, rep.Profile)
	}
}

func TestPublicDecisionCache(t *testing.T) {
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = 1 / float64(i+1)
	}
	heuristic := repro.WithPolicy(selector.NewHeuristicPolicy())
	if _, ok := repro.New(1e-9, heuristic).CacheStats(); ok {
		t.Error("CacheStats reported a cache that was never attached")
	}
	rt := repro.New(1e-9, heuristic, repro.WithDecisionCache(256))
	base, baseRep := repro.New(1e-9, heuristic).Sum(xs)
	var got float64
	var rep repro.Report
	for i := 0; i < 3; i++ {
		got, rep = rt.Sum(xs)
	}
	if math.Float64bits(got) != math.Float64bits(base) || rep.Algorithm != baseRep.Algorithm {
		t.Errorf("cached runtime diverged: %g/%v vs %g/%v",
			got, rep.Algorithm, base, baseRep.Algorithm)
	}
	st, ok := rt.CacheStats()
	if !ok || st.Hits < 2 || st.Misses < 1 {
		t.Errorf("cache stats = %+v ok=%v, want >=2 hits / >=1 miss", st, ok)
	}
	if r := st.HitRate(); r <= 0 || r >= 1 {
		t.Errorf("hit rate = %g", r)
	}
	cfg := repro.New(1e-9, heuristic, repro.WithDecisionCache(32))
	if v, _ := cfg.Sum(xs); math.Float64bits(v) != math.Float64bits(base) {
		t.Error("configured cache changed serving bits")
	}
}
