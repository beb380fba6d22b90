package repro_test

import (
	"math"
	"testing"

	"repro"
)

func TestPublicSumAndExactSum(t *testing.T) {
	xs := []float64{1e16, 1, -1e16}
	if got := repro.ExactSum(xs); got != 1 {
		t.Errorf("ExactSum = %g, want 1", got)
	}
	if got := repro.Sum(repro.Composite, xs); got != 1 {
		t.Errorf("Composite sum = %g, want 1", got)
	}
	if got := repro.Sum(repro.Standard, xs); got != 0 {
		t.Errorf("Standard sum = %g (expected absorption to 0)", got)
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
	if got := repro.ParallelExactSum(xs, 4); got != repro.ExactSum(xs) {
		t.Errorf("ParallelExactSum = %g, ExactSum = %g", got, repro.ExactSum(xs))
	}
}

func TestPublicSelectAndSum(t *testing.T) {
	xs := []float64{3.5, -3.5, 1.25, 2.75}
	got, rep := repro.SelectAndSum(1e-9, xs)
	want, wantRep := repro.New(1e-9).Sum(xs)
	if math.Float64bits(got) != math.Float64bits(want) || rep.Algorithm != wantRep.Algorithm {
		t.Errorf("SelectAndSum = %g/%v, Runtime.Sum = %g/%v",
			got, rep.Algorithm, want, wantRep.Algorithm)
	}
}

func TestPublicDecisionCache(t *testing.T) {
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = 1 / float64(i+1)
	}
	if _, ok := repro.New(1e-9).CacheStats(); ok {
		t.Error("CacheStats reported a cache that was never attached")
	}
	rt := repro.New(1e-9, repro.WithDecisionCache(256))
	base, baseRep := repro.New(1e-9).Sum(xs)
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
	cfg := repro.New(1e-9, repro.WithDecisionCache(32))
	if v, _ := cfg.Sum(xs); math.Float64bits(v) != math.Float64bits(base) {
		t.Error("configured cache changed serving bits")
	}
}
