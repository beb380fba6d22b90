package repro

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/selector"
	"repro/internal/sum"
	"repro/internal/superacc"
)

func TestRuntimeSumPicksCheapOnEasyData(t *testing.T) {
	rt := New(1e-9, WithPolicy(selector.NewHeuristicPolicy()))
	xs := gen.Spec{N: 1024, Cond: 1, DynRange: 4, Seed: 1}.Generate()
	v, rep := rt.Sum(xs)
	if rep.Algorithm != sum.StandardAlg {
		t.Errorf("chose %v for easy data", rep.Algorithm)
	}
	if v != sum.Standard(xs) {
		t.Errorf("value %g does not match the chosen algorithm", v)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}

func TestRuntimeBitwiseTolerance(t *testing.T) {
	rt := New(0)
	xs := gen.SumZeroSeries(2048, 24, 2)
	_, rep := rt.Sum(xs)
	if rep.Algorithm != sum.BinnedAlg {
		t.Errorf("t=0 chose %v, want the binned reproducible rung", rep.Algorithm)
	}
	if rep.Predicted != 0 {
		t.Errorf("predicted %g for BN", rep.Predicted)
	}
	// A nonzero sum takes the exact bypass, and the report says so.
	_, rep = rt.Sum(gen.Spec{N: 2048, Cond: 1e4, DynRange: 24, Seed: 2}.Generate())
	if rep.Algorithm != sum.BinnedAlg || !strings.Contains(rep.String(), "profile skipped") {
		t.Errorf("exact-bypass report %q does not say the profile was skipped", rep.String())
	}
}

func TestWithPolicyOption(t *testing.T) {
	pol := selector.NewCalibratedPolicy(nil, 0) // falls back to heuristic
	rt := New(1e-9, WithPolicy(pol))
	if rt.Selector().Policy != selector.Policy(pol) {
		t.Error("option did not install policy")
	}
	if rt.Tolerance() != 1e-9 {
		t.Error("tolerance lost")
	}
}

func TestRuntimeTunesPRConfig(t *testing.T) {
	// The ladder now serves t=0 with the cheaper binned rung, so PR (the
	// one algorithm with a precision knob) is pinned via a static policy
	// to keep the tuning path covered.
	xs := gen.SumZeroSeries(2048, 24, 40)
	rt := New(0, WithPolicy(selector.Static{Alg: sum.PreroundedAlg}))
	_, rep := rt.Sum(xs)
	if rep.Algorithm != sum.PreroundedAlg {
		t.Fatalf("chose %v", rep.Algorithm)
	}
	if rep.PRConfig == nil {
		t.Fatal("PR chosen but no tuned config reported")
	}
	if err := rep.PRConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	// Non-PR selections carry no config.
	easy := gen.Spec{N: 512, Cond: 1, DynRange: 2, Seed: 41}.Generate()
	rt2 := New(1e-9)
	_, rep2 := rt2.Sum(easy)
	if rep2.PRConfig != nil {
		t.Errorf("%v selection carries a PR config", rep2.Algorithm)
	}
}

func TestRuntimeSumNonFiniteFallback(t *testing.T) {
	rt := New(1e-9)
	// NaN input: the result is NaN and the report flags the condition.
	xs := []float64{1, 2, math.NaN(), 4}
	v, rep := rt.Sum(xs)
	if !math.IsNaN(v) {
		t.Errorf("NaN input summed to %g", v)
	}
	if !rep.NonFinite {
		t.Error("report did not flag non-finite input")
	}
	if rep.Algorithm != sum.StandardAlg {
		t.Errorf("fallback chose %v, want ST (IEEE propagation)", rep.Algorithm)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}

	// +Inf input: IEEE propagation demands +Inf, not the NaN a
	// compensated correction would manufacture out of Inf-Inf.
	ys := []float64{1, math.Inf(1), 2}
	v2, rep2 := rt.Sum(ys)
	if !math.IsInf(v2, 1) {
		t.Errorf("+Inf input summed to %g, want +Inf", v2)
	}
	if !rep2.NonFinite || rep2.PRConfig != nil {
		t.Errorf("bad +Inf report: %+v", rep2)
	}

	// A bitwise-tolerance runtime must take the same fallback rather
	// than feeding non-finite operands into PR's binning.
	v3, rep3 := New(0).Sum(ys)
	if !math.IsInf(v3, 1) || rep3.Algorithm != sum.StandardAlg {
		t.Errorf("t=0 runtime: %g via %v", v3, rep3.Algorithm)
	}
}

// TestDefaultServesExact pins the Runtime without a policy to New(0) at
// every tolerance: bits, Algorithm, NonFinite and Profile, with and
// without a decision cache. Every finite answer is the oracle's
// correctly rounded sum, and finite, non-degenerate data is never
// profiled.
func TestDefaultServesExact(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	inputs := map[string][]float64{
		"empty":     nil,
		"single":    {-2.5},
		"allzero":   {0, 0, 0},
		"allnegz":   {negZero, negZero, negZero},
		"nan":       {1, math.NaN(), 2},
		"posinf":    {1, inf, 2},
		"neginf":    {-inf, 3},
		"infmin":    {inf, 1, -inf},
		"above1000": {0x1.8p1000, 0x1p1000, -0x1p-60},
	}
	var cells []string
	for _, n := range []int{2, 21, 1024, 65536} {
		for _, k := range []float64{1, 1e4, 1e8, math.Inf(1)} {
			for _, dr := range []int{0, 16, 32} {
				spec := gen.Spec{N: n, Cond: k, DynRange: dr, Seed: uint64(n) + uint64(dr)}
				inputs[spec.String()] = spec.Generate()
				cells = append(cells, spec.String())
			}
		}
	}
	for name, xs := range inputs {
		exact := superacc.Sum(xs)
		for _, cached := range []bool{false, true} {
			var opts []Option
			if cached {
				opts = append(opts, WithDecisionCache(0))
			}
			want, wantRep := New(0, opts...).Sum(xs)
			for _, tol := range []float64{1e-3, 1e-9, 1e-13, 1e-15, 3e-16, 0} {
				where := fmt.Sprintf("%s cached=%v tol=%g", name, cached, tol)
				rt := New(tol, opts...)
				if rt.Tolerance() != tol {
					t.Errorf("%s: Tolerance() = %g", where, rt.Tolerance())
				}
				got, rep := rt.Sum(xs)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %x, New(0) %x", where, math.Float64bits(got), math.Float64bits(want))
				}
				if !math.IsInf(got, 0) && !math.IsNaN(got) && math.Float64bits(got) != math.Float64bits(exact) {
					t.Errorf("%s: %g, exact %g", where, got, exact)
				}
				if rep.Algorithm != wantRep.Algorithm || rep.NonFinite != wantRep.NonFinite || rep.Profile != wantRep.Profile {
					t.Errorf("%s: report %+v, New(0) %+v", where, rep, wantRep)
				}
			}
		}
	}
	for _, name := range cells {
		_, rep := New(1e-3).Sum(inputs[name])
		if rep.Algorithm != sum.BinnedAlg || rep.Profile != (Profile{N: int64(len(inputs[name]))}) ||
			!strings.Contains(rep.String(), "exact sum, profile skipped") {
			t.Errorf("%s: the default profiled finite data: %v", name, rep)
		}
	}
}
