package repro

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/selector"
	"repro/internal/sum"
)

// legacySum reproduces the pre-fused two-pass Runtime.Sum exactly:
// profile, policy, TunePR when PR, then the selected operator — the
// oracle the fused serving path is pinned against.
func legacySum(rt *Runtime, xs []float64) (float64, sum.Algorithm) {
	if rt.engineFor(len(xs)) {
		prof := selector.ProfileOfParallel(xs, rt.par)
		if prof.NonFinite {
			return sum.Standard(xs), sum.StandardAlg
		}
		alg, _ := rt.sel.Policy.Select(prof, rt.sel.Req)
		if alg == sum.PreroundedAlg {
			return parallel.SumPR(selector.TunePR(prof, rt.sel.Req), xs, rt.par), alg
		}
		return parallel.Sum(alg, xs, rt.par), alg
	}
	prof := selector.ProfileOf(xs)
	if prof.NonFinite {
		return sum.Standard(xs), sum.StandardAlg
	}
	alg, _ := rt.sel.Policy.Select(prof, rt.sel.Req)
	if alg == sum.PreroundedAlg {
		return sum.PreroundedWith(selector.TunePR(prof, rt.sel.Req), xs), alg
	}
	return alg.Sum(xs), alg
}

func runtimeCases() map[string][]float64 {
	cases := map[string][]float64{
		"empty": nil,
		"tiny":  {1, 2, 3.5},
	}
	for name, spec := range map[string]gen.Spec{
		"benign":  {N: 60000, Cond: 1, DynRange: 8, Seed: 80},
		"illcond": {N: 60000, Cond: 1e8, DynRange: 24, Seed: 81},
		"sumzero": {N: 50000, Cond: math.Inf(1), DynRange: 32, Seed: 82},
	} {
		cases[name] = spec.Generate()
	}
	poisoned := gen.Spec{N: 50000, Cond: 1, DynRange: 4, Seed: 83}.Generate()
	poisoned[33333] = math.NaN()
	cases["poisoned"] = poisoned
	return cases
}

// TestRuntimeSumFusedEquivalence pins the rewired Runtime.Sum bitwise
// against the legacy two-pass semantics, serial and on the engine at
// several worker counts and lane widths (wide lanes exercising the
// fused pass's escalate-always route).
func TestRuntimeSumFusedEquivalence(t *testing.T) {
	for name, xs := range runtimeCases() {
		for _, tol := range []float64{1e-6, 1e-12, 0} {
			variants := map[string]*Runtime{
				"serial": New(tol),
				"w1":     New(tol, WithWorkers(1), WithChunkSize(1<<12)),
				"w4":     New(tol, WithWorkers(4), WithChunkSize(1<<12)),
				"w4lane4": New(tol, WithWorkers(4), WithChunkSize(1<<12),
					WithLaneWidth(4)),
			}
			for vname, rt := range variants {
				got, rep := rt.Sum(xs)
				want, wantAlg := legacySum(rt, xs)
				if rep.Algorithm != wantAlg {
					t.Errorf("%s %s tol=%g: chose %v, legacy %v",
						name, vname, tol, rep.Algorithm, wantAlg)
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s tol=%g (%v): fused %x != legacy %x", name, vname,
						tol, rep.Algorithm, math.Float64bits(got), math.Float64bits(want))
				}
				if name == "poisoned" && (!rep.NonFinite || !math.IsInf(rep.Predicted, 1)) {
					t.Errorf("%s %s: poisoned report %+v", name, vname, rep)
				}
			}
		}
	}
}

// TestRuntimeDecisionCache exercises the WithDecisionCache option
// end-to-end: stats plumbing, hit accounting across repeated serving,
// and bit-stability between cached and cache-less runs for fast-path
// selections.
func TestRuntimeDecisionCache(t *testing.T) {
	xs := gen.Spec{N: 30000, Cond: 1, DynRange: 8, Seed: 84}.Generate()
	plain := New(1e-9)
	if _, ok := plain.CacheStats(); ok {
		t.Error("cache stats reported with no cache attached")
	}
	rt := New(1e-9, WithDecisionCache(128))
	vPlain, _ := plain.Sum(xs)
	var vCached float64
	for i := 0; i < 5; i++ {
		vCached, _ = rt.Sum(xs)
	}
	st, ok := rt.CacheStats()
	if !ok {
		t.Fatal("cache stats unavailable")
	}
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats %+v, want 1 miss / 4 hits", st)
	}
	if math.Float64bits(vPlain) != math.Float64bits(vCached) {
		t.Errorf("cache changed ST fast-path bits: %x vs %x",
			math.Float64bits(vPlain), math.Float64bits(vCached))
	}
	// Sharded geometry via the config option, on the engine path.
	shard := New(0, WithWorkers(4), WithChunkSize(1<<12),
		WithDecisionCacheConfig(selector.CacheConfig{Capacity: 64, Shards: 4}))
	r1, _ := shard.Sum(xs)
	r2, _ := shard.Sum(xs)
	if math.Float64bits(r1) != math.Float64bits(r2) {
		t.Error("cached engine serving not self-consistent")
	}
	if st, _ := shard.CacheStats(); st.Hits == 0 {
		t.Errorf("engine serving never hit the cache: %+v", st)
	}
}

// TestRuntimeCachedSumDeterministicAcrossHistory: the cache must make
// decisions from bucket representatives, so serving history (which
// profile warmed the bucket first) cannot change any answer.
func TestRuntimeCachedSumDeterministicAcrossHistory(t *testing.T) {
	a := gen.Spec{N: 4000, Cond: 1.1e5, DynRange: 16, Seed: 85}.Generate()
	b := gen.Spec{N: 4000, Cond: 1.4e5, DynRange: 16, Seed: 86}.Generate()
	run := func(order [][]float64) [2]uint64 {
		rt := New(1e-12, WithDecisionCache(64))
		var va, vb float64
		for _, xs := range order {
			v, _ := rt.Sum(xs)
			if &xs[0] == &a[0] {
				va = v
			} else {
				vb = v
			}
		}
		return [2]uint64{math.Float64bits(va), math.Float64bits(vb)}
	}
	ab := run([][]float64{a, b})
	ba := run([][]float64{b, a})
	if ab != ba {
		t.Errorf("serving order changed cached results: %v vs %v", ab, ba)
	}
}
