package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/selector"
	"repro/internal/sum"
)

// legacySum reproduces the pre-fused two-pass Runtime.Sum exactly:
// profile, policy (through a fresh decision cache when rt has one),
// TunePR when PR, then the selected operator — the oracle the fused
// serving path is pinned against. It also returns the profile, so
// callers can check NonFinite and the reported profile.
func legacySum(rt *Runtime, xs []float64) (float64, sum.Algorithm, Profile) {
	ref := &selector.Selector{Policy: rt.sel.Policy, Req: rt.sel.Req}
	if rt.sel.Cache != nil {
		ref.Cache = selector.NewDecisionCache(0)
	}
	prof := selector.ProfileOf(xs)
	if prof.NonFinite {
		return sum.Standard(xs), sum.StandardAlg, prof
	}
	d := ref.Decide(prof)
	if d.Alg == sum.PreroundedAlg {
		return sum.PreroundedWith(d.PR, xs), d.Alg, prof
	}
	return d.Alg.Sum(xs), d.Alg, prof
}

// runtimeCases are the generator corners plus the inputs where a
// tolerance-0 request's answer can part from the exact bypass: empty,
// one operand, signed zeros, an exactly cancelling pair, an overflowing
// sum, every kind of poison, and subnormal-only data.
func runtimeCases() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"empty":      nil,
		"tiny":       {1, 2, 3.5},
		"one":        {-4.5},
		"negzero":    {negZero},
		"allnegzero": {negZero, negZero, negZero, negZero},
		"mixedzero":  {negZero, 0, negZero},
		"cancelpair": {0x1.4p7, -0x1.4p7},
		"overflow":   {math.MaxFloat64, math.MaxFloat64},
		"nan":        {1, math.NaN()},
		"posinf":     {math.Inf(1), 2, 3},
		"neginf":     {-1, math.Inf(-1)},
		"bothinf":    {math.Inf(1), math.Inf(-1)},
		"subnormal":  {0x1p-1074, 0x5p-1074, -0x1p-1073, 0x1p-1050},
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
// against the legacy two-pass semantics — result bits, Algorithm and
// NonFinite — under the heuristic and probabilistic policies, with and
// without the decision cache. A request answered without a profile
// must be one only BN can meet and report the exact-bypass contract.
func TestRuntimeSumFusedEquivalence(t *testing.T) {
	policies := map[string]Policy{
		"heuristic":     selector.NewHeuristicPolicy(),
		"probabilistic": NewProbabilisticPolicy(0),
	}
	for name, xs := range runtimeCases() {
		for _, tol := range []float64{1e-6, 1e-12, 1e-15, 0} {
			for pname, pol := range policies {
				for _, cached := range []bool{false, true} {
					opts := []Option{WithPolicy(pol)}
					if cached {
						opts = append(opts, WithDecisionCache(0))
					}
					rt := New(tol, opts...)
					where := fmt.Sprintf("%s %s cached=%v tol=%g", name, pname, cached, tol)
					got, rep := rt.Sum(xs)
					want, wantAlg, prof := legacySum(rt, xs)
					if rep.Algorithm != wantAlg {
						t.Errorf("%s: chose %v, legacy %v", where, rep.Algorithm, wantAlg)
						continue
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s (%v): fused %x != legacy %x", where,
							rep.Algorithm, math.Float64bits(got), math.Float64bits(want))
					}
					if rep.NonFinite != prof.NonFinite {
						t.Errorf("%s: NonFinite=%v, legacy %v", where, rep.NonFinite, prof.NonFinite)
					}
					if prof.NonFinite && !math.IsInf(rep.Predicted, 1) {
						t.Errorf("%s: poisoned report %+v", where, rep)
					}
					// Only BN can meet tolerance 0, and under the
					// heuristic 1e-15 from n = 21 on.
					onlyBN := tol == 0 || tol == 1e-15 && pname == "heuristic" && len(xs) >= 21
					skipped := rep.Bounds == (Bounds{})
					if skipped && (!onlyBN || rep.Algorithm != Binned || rep.Predicted != 0 ||
						rep.Profile != (Profile{N: int64(len(xs))})) {
						t.Errorf("%s: profile skipped outside the exact bypass: %+v", where, rep)
					}
					if onlyBN && (name == "benign" || name == "illcond" || name == "tiny" && tol == 0) && !skipped {
						t.Errorf("%s: the request did not take the exact bypass", where)
					}
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
	heuristic := WithPolicy(selector.NewHeuristicPolicy())
	plain := New(1e-9, heuristic)
	if _, ok := plain.CacheStats(); ok {
		t.Error("cache stats reported with no cache attached")
	}
	rt := New(1e-9, heuristic, WithDecisionCache(128))
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
	// A small cache set directly on the selector (at a nonzero
	// tolerance: tolerance 0 takes the exact bypass, which never
	// consults the cache).
	small := New(1e-9, heuristic)
	small.sel.Cache = selector.NewDecisionCache(64)
	r1, _ := small.Sum(xs)
	r2, _ := small.Sum(xs)
	if math.Float64bits(r1) != math.Float64bits(r2) || math.Float64bits(r1) != math.Float64bits(vPlain) {
		t.Error("small-cache serving not self-consistent")
	}
	if st, _ := small.CacheStats(); st.Hits == 0 {
		t.Errorf("small-cache serving never hit the cache: %+v", st)
	}
}

// TestRuntimeCachedSumDeterministicAcrossHistory: the cache must make
// decisions from bucket representatives, so serving history (which
// profile warmed the bucket first) cannot change any answer.
func TestRuntimeCachedSumDeterministicAcrossHistory(t *testing.T) {
	a := gen.Spec{N: 4000, Cond: 1.1e5, DynRange: 16, Seed: 85}.Generate()
	b := gen.Spec{N: 4000, Cond: 1.4e5, DynRange: 16, Seed: 86}.Generate()
	run := func(order [][]float64) [2]uint64 {
		rt := New(1e-12, WithPolicy(selector.NewHeuristicPolicy()), WithDecisionCache(64))
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
