package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/binned"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/sum"
)

// benchSelector builds a selector whose policy lands on the requested
// fast-path algorithm for the benign benchmark data: the analytic
// policy picks ST at loose tolerance; Neumaier is forced Static (the
// heuristic never selects it on its own).
func benchSelector(alg sum.Algorithm) *Selector {
	s := New(1e-9)
	if alg == sum.NeumaierAlg {
		s = New(0)
		s.Policy = Static{Alg: alg}
	}
	return s
}

// BenchmarkSelectSum compares the legacy two-pass select-then-sum
// route against the fused single-pass engine, with and without the
// decision cache, on the ST and Neumaier fast paths (the regimes where
// fusion removes the entire second data pass). The exact rows put a
// tolerance-0 SelectAndSum (the exact bypass) beside the bare BN fold
// it runs, so selection overhead on the exact answer reads directly.
func BenchmarkSelectSum(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		xs := gen.Spec{N: n, Cond: 1, DynRange: 8, Seed: 90}.Generate()
		var sink float64
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			s := New(0)
			if _, sel := s.SelectAndSum(xs); sel.Alg != sum.BinnedAlg {
				b.Fatalf("tolerance 0 selects %v", sel.Alg)
			}
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				sink, _ = s.SelectAndSum(xs)
			}
		})
		b.Run(fmt.Sprintf("bnfold/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				var st binned.State
				st.AddSlice(xs)
				sink = st.Finalize()
			}
		})
		for _, alg := range []sum.Algorithm{sum.StandardAlg, sum.NeumaierAlg} {
			s := benchSelector(alg)
			if a := s.Decide(ProfileOf(xs)).Alg; a != alg {
				b.Fatalf("fixture selects %v, want %v", a, alg)
			}
			b.Run(fmt.Sprintf("twopass/%s/n=%d", alg, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					prof := ProfileOf(xs)
					a, _ := s.Policy.Select(prof, s.Req)
					sink = a.Sum(xs)
				}
			})
			b.Run(fmt.Sprintf("fused/%s/n=%d", alg, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					sink, _ = s.SelectAndSum(xs)
				}
			})
			b.Run(fmt.Sprintf("fusedcache/%s/n=%d", alg, n), func(b *testing.B) {
				c := benchSelector(alg)
				c.Cache = NewDecisionCache(CacheConfig{})
				c.SelectAndSum(xs) // warm the bucket
				b.SetBytes(int64(8 * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink, _ = c.SelectAndSum(xs)
				}
				b.StopTimer()
				b.ReportMetric(c.Cache.Stats().HitRate(), "hit-rate")
			})
		}
		_ = sink
	}
}

// syntheticTable fabricates a plausibly-sized calibration table (the
// shape a grid.Sweep over a 3x9x5 envelope would produce) so the Decide
// benchmark measures the nearest-neighbor scan the cache memoizes
// without paying for an offline sweep at bench time.
func syntheticTable() *CalibratedPolicy {
	var cells []grid.CellResult
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		for ki := 0; ki <= 8; ki++ {
			for _, dr := range []int{0, 8, 16, 24, 32} {
				k := math.Pow(10, float64(ki))
				cells = append(cells, grid.CellResult{
					Spec:       grid.CellSpec{N: n, Cond: k, DynRange: dr},
					MeasuredK:  k,
					MeasuredDR: dr,
					RelStdDev: map[sum.Algorithm]float64{
						sum.StandardAlg:   1e-16 * k,
						sum.KahanAlg:      1e-18 * k,
						sum.CompositeAlg:  1e-24 * k,
						sum.PreroundedAlg: 0,
					},
				})
			}
		}
	}
	return NewCalibratedPolicy(cells, 4)
}

// BenchmarkDecide isolates the selection step: the analytic heuristic
// (cheap by construction), a measurement-backed calibrated policy (a
// 135-cell nearest-neighbor scan plus candidate sort), and a warm cache
// hit over that same calibrated policy — the memoization the cache
// exists to provide.
func BenchmarkDecide(b *testing.B) {
	xs := gen.Spec{N: 100000, Cond: 1e8, DynRange: 24, Seed: 91}.Generate()
	prof := ProfileOf(xs)
	var sink Decision
	b.Run("heuristic", func(b *testing.B) {
		s := New(1e-12)
		for i := 0; i < b.N; i++ {
			sink = s.Decide(prof)
		}
	})
	b.Run("calibrated", func(b *testing.B) {
		s := New(1e-12)
		s.Policy = syntheticTable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = s.Decide(prof)
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := New(1e-12)
		s.Policy = syntheticTable()
		s.Cache = NewDecisionCache(CacheConfig{})
		s.Decide(prof) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = s.Decide(prof)
		}
		b.StopTimer()
		b.ReportMetric(s.Cache.Stats().HitRate(), "hit-rate")
	})
	_ = sink
}
