package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/sum"
)

// bypassCases adds to fusedCases the inputs where a tolerance-0 answer
// can part from BN or from the BN fold's bits: one operand, signed
// zeros, exactly cancelling nonzero operands (at the top of the range,
// on the subnormal grid, and fusedCases' generated sum-zero set), an
// overflowing sum, every kind of poison, subnormal-only and
// tiny-magnitude data, and sums just above the bypass ceiling.
func bypassCases() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	cases := fusedCases()
	for name, xs := range map[string][]float64{
		"one":           {-7.5},
		"negzero":       {negZero},
		"allnegzero":    {negZero, negZero, negZero},
		"mixedzero":     {0, negZero, negZero, 0},
		"cancelpair":    {0x1.8p3, -0x1.8p3},
		"cancelmax":     {math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64},
		"cancelsub":     {0x1p-1074, -0x1p-1074},
		"overflow":      {math.MaxFloat64, math.MaxFloat64},
		"nearmax":       {0x1p1000, 0x1p999, -0x1p999},
		"abovewindow":   {math.MaxFloat64, 0x1p1000, -0x1p1000},
		"onlynan":       {1, math.NaN(), 2},
		"posinf":        {1, math.Inf(1), -2},
		"neginf":        {math.Inf(-1), 3},
		"bothinf":       {math.Inf(1), math.Inf(-1)},
		"subonly":       {0x1p-1074, 0x3p-1074, -0x1p-1070, 0x1p-1060},
		"tiny":          {0x1p-500, 0x1p-501, -0x1p-530},
		"tiny400":       {0x1p-400, 0x1p-460},
		"tiny401":       {0x1p-401, 0x1p-460},
		"tinypair":      {0x1p-540, 0x1p-541},
		"tinyulps":      {0x1p-600, 0x1p-653, 0x1p-653},
		"tinyulpsrev":   {0x1p-653, 0x1p-653, 0x1p-600},
		"tinycancel":    {1, 0x1p-390, -1},
		"cancelbelow":   {1, 0x1p-450, -1},
		"subpair":       {0x1p-1074, 0x1p-1074},
		"smallbenign":   {0.5, 0.25, 1.75},
		"minnormalpair": {0x1p-1022, 0x1p-1022},
	} {
		cases[name] = xs
	}
	return cases
}

// sameProfile is profile equality with the compensated pairs compared
// bit for bit, so NaN estimates from an overflowed Σx still match.
func sameProfile(a, b Profile) bool {
	pairBits := func(c CSum) [2]uint64 { return [2]uint64{fbits(c.S), fbits(c.C)} }
	if pairBits(a.Sum) != pairBits(b.Sum) || pairBits(a.SumAbs) != pairBits(b.SumAbs) {
		return false
	}
	a.Sum, a.SumAbs, b.Sum, b.SumAbs = CSum{}, CSum{}, CSum{}, CSum{}
	return a == b
}

// checkServed runs one request through s and pins it against the
// two-pass oracle: the same bits (any NaN where nanPayloadOpen), the
// same Algorithm and NonFinite, and PR only with its tuned
// configuration. A request servedExact names must report
// Profile{N: n}, BN, Predicted 0, zero Bounds and Fast false; every
// other one the full profile and the oracle's Predicted (+Inf on
// poisoned input). It returns the answer, its selection and whether
// the request was bypassed.
func checkServed(t *testing.T, where string, s *Selector, xs []float64) (float64, Selection, bool) {
	t.Helper()
	got, sel := s.SelectAndSum(xs)
	want, ref := twoPassSum(s, xs)
	sameSum := fbits(got) == fbits(want) || math.IsNaN(got) && math.IsNaN(want) && nanPayloadOpen(xs)
	if sel.Algorithm != ref.Algorithm || !sameSum || sel.NonFinite != ref.NonFinite {
		t.Errorf("%s: got %v %x NonFinite=%v, oracle %v %x NonFinite=%v",
			where, sel.Algorithm, fbits(got), sel.NonFinite, ref.Algorithm, fbits(want), ref.NonFinite)
	}
	if ref.PRConfig != nil && (sel.PRConfig == nil || *sel.PRConfig != *ref.PRConfig) {
		t.Errorf("%s: PR served without its tuned configuration", where)
	}
	if !servedExact(s, xs) {
		if !sameProfile(sel.Profile, ref.Profile) {
			t.Errorf("%s: full-path profile %+v, want %+v", where, sel.Profile, ref.Profile)
		}
		if fbits(sel.Predicted) != fbits(ref.Predicted) {
			t.Errorf("%s: predicted %g, oracle %g", where, sel.Predicted, ref.Predicted)
		}
		return got, sel, false
	}
	if exact := (Selection{Algorithm: sum.BinnedAlg, Profile: Profile{N: int64(len(xs))}}); sel != exact {
		t.Errorf("%s: bypassed selection %+v, want %+v", where, sel, exact)
	}
	return got, sel, true
}

// nanPayloadOpen reports whether the payload of a NaN sum of xs is
// left open: two NaNs meet in one add — NaN operands of different
// bits, or a NaN operand and the NaN of +Inf + -Inf — and the add keeps
// the payload of whichever operand the compiled instruction takes
// first, an order Go does not fix (the fused pass's ST shadow and
// sum.Standard differ there).
func nanPayloadOpen(xs []float64) bool {
	nans := map[uint64]bool{}
	var pos, neg bool
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			nans[fbits(x)] = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		}
	}
	return len(nans) > 1 || len(nans) == 1 && pos && neg
}

// TestSelectAndSumExactBypass pins the exact bypass against the
// two-pass oracle (checkServed) with and without the decision cache:
// at tolerance 0 on bypassCases under every policy, where only the
// analytic ones bypass and Static (PR must still be tuned) and the
// calibrated table profile every request; and at tolerances above 0 on
// tightSets of the sizes around each threshold of the heuristic's rule
// (onlyBN), where the bound-driven policy profiles every request.
func TestSelectAndSumExactBypass(t *testing.T) {
	type policy struct {
		name string
		pol  Policy
	}
	analytic := []policy{
		{"heuristic", NewHeuristicPolicy()},
		{"probabilistic", NewProbabilisticPolicy(0)},
		{"probabilistic-balanced", ProbabilisticPolicy{Lambda: 3, Plan: BalancedPlan}},
		{"probabilistic-hugelambda", NewProbabilisticPolicy(math.Inf(1))},
	}
	policies := append(analytic, []policy{
		{"static-PR", Static{Alg: sum.PreroundedAlg}},
		{"static-BN", Static{Alg: sum.BinnedAlg}},
		{"calibrated", syntheticTable()},
	}...)
	served := map[string]int{}
	for name, xs := range bypassCases() {
		for _, p := range policies {
			for _, cached := range []bool{false, true} {
				s := &Selector{Policy: p.pol}
				if cached {
					s.Cache = NewDecisionCache(0)
				}
				if _, _, ok := checkServed(t, fmt.Sprintf("%s %s cached=%v", name, p.name, cached), s, xs); ok {
					served[name]++
				}
			}
		}
	}
	// The generator cases and the plain finite ones must actually take
	// the bypass, on every configuration, or the pins above prove
	// nothing about it.
	all := len(analytic) * 2
	for _, name := range []string{"benign", "illcond", "widerange", "smallbenign", "nearmax", "tinycancel",
		"subonly", "tiny", "tiny400", "tiny401", "tinypair", "tinyulps", "tinyulpsrev", "cancelbelow",
		"minnormalpair", "subpair", "cancelpair", "cancelmax", "cancelsub", "sumzero"} {
		if served[name] != all {
			t.Errorf("%s: bypass served %d of %d configurations", name, served[name], all)
		}
	}
	for _, name := range []string{"empty", "one", "zeros", "allnegzero", "mixedzero", "overflow", "onlynan",
		"bothinf", "abovewindow"} {
		if served[name] != 0 {
			t.Errorf("%s: bypass served %d requests, want 0", name, served[name])
		}
	}

	sets := map[int]map[string][]float64{}
	bypassed := map[float64]int{}
	condBelowOne := 0
	for _, th := range bypassThresholds {
		for n := th.n - 1; n <= th.n+1; n++ {
			if sets[n] == nil {
				sets[n] = tightSets(n)
			}
			for name, xs := range sets[n] {
				for _, p := range analytic[:2] {
					for _, cached := range []bool{false, true} {
						s := &Selector{Policy: p.pol, Req: Requirement{Tolerance: th.tol}}
						if cached {
							s.Cache = NewDecisionCache(0)
						}
						where := fmt.Sprintf("tol=%g n=%d %s %s cached=%v", th.tol, n, name, p.name, cached)
						if _, _, ok := checkServed(t, where, s, xs); !ok {
							continue
						}
						bypassed[th.tol]++
						if k := ProfileOf(xs).Cond(); k < 1 {
							condBelowOne++
						}
					}
				}
			}
		}
	}
	// At a tolerance equal to the data's own ST prediction the full
	// route picks ST, also where the computed Cond is below 1, so the
	// bypass's floor must lie below that Cond.
	for n, byName := range sets {
		for _, name := range []string{"ulpbelow", "negulpbelow", "tenths"} {
			xs := byName[name]
			tol := NewHeuristicPolicy().Predict(sum.StandardAlg, ProfileOf(xs))
			s := New(tol)
			if _, _, ok := checkServed(t, fmt.Sprintf("tol=ST prediction n=%d %s", n, name), s, xs); ok {
				t.Errorf("n=%d %s: bypassed at its own ST prediction %g", n, name, tol)
			}
		}
	}
	for _, th := range bypassThresholds {
		if th.tol < 1e-12 && bypassed[th.tol] == 0 {
			t.Errorf("tol=%g: no request took the bypass", th.tol)
		}
		if th.tol >= 1e-12 && bypassed[th.tol] != 0 {
			t.Errorf("tol=%g: %d requests took the bypass", th.tol, bypassed[th.tol])
		}
	}
	if condBelowOne == 0 {
		t.Error("no bypassed request had a computed condition number below 1")
	}
}

// bypassThresholds lists, per tolerance, the smallest n the heuristic
// can only resolve to BN (onlyBN); the tight half of
// TestSelectAndSumExactBypass runs n-1, n and n+1. 1e-3 has no such n
// in range: it runs 1e-13's sizes, which must all profile.
// FuzzSelectAndSum's corpus picks tolerances from it by index.
var bypassThresholds = []struct {
	tol float64
	n   int
}{
	{0, 2}, {1e-16, 2}, {3.2e-16, 3}, {1e-15, 21}, {1e-14, 2029}, {1e-13, 202825}, {1e-3, 202825},
}

// TestExactBypassThresholds pins the threshold table the docs state —
// the smallest n the heuristic sends to the exact bypass per tolerance
// — for both the rule onlyBN states and the serving code's
// exactBypass.
func TestExactBypassThresholds(t *testing.T) {
	for _, c := range []struct {
		tol float64
		n   int
	}{{1e-12, 20282410}, {1e-13, 202825}, {1e-14, 2029}, {1e-15, 21}, {3.2e-16, 3}, {3.14e-16, 2}, {1e-16, 2}, {0, 2}} {
		s := New(c.tol)
		for n, want := range map[int]bool{c.n - 1: c.n == 2, c.n: true, c.n + 1: true} {
			if n < 2 {
				want = false
			}
			if got := onlyBN(s, n); got != want {
				t.Errorf("tol=%g n=%d: onlyBN %v, want %v", c.tol, n, got, want)
			}
			if got := s.exactBypass(n); got != want {
				t.Errorf("tol=%g n=%d: exactBypass %v, want %v", c.tol, n, got, want)
			}
		}
	}
	// Just above 2u·√2 not even n = 2 bypasses.
	if s := New(3.15e-16); onlyBN(s, 2) || s.exactBypass(2) {
		t.Error("tol=3.15e-16 bypasses n=2")
	}
	// The rule's floor lies at or below every computed condition number,
	// the same-sign sets whose Σ|x| rounds down included.
	for _, n := range []int{3, 4, 21, 2029} {
		for name, xs := range tightSets(n) {
			p := ProfileOf(xs)
			if p.NonFinite || p.degenerate() {
				continue
			}
			if floor := 1 - 2*float64(n)*fpu.UnitRoundoff; p.Cond() < floor {
				t.Errorf("n=%d %s: Cond %v below the floor %v", n, name, p.Cond(), floor)
			}
		}
	}
}

// tightSets are twenty sets of n values for the tight-tolerance loop:
// generator cells across condition number and dynamic range, same-sign
// sets whose plain Σ|x| rounds below the compensated Σx (computed Cond
// below 1 from n = 3), alternating and cancelling sets, zeros, poison,
// a sum above the bypass ceiling, and subnormals. Sets of one value
// are the first value of their two-value set.
func tightSets(n int) map[string][]float64 {
	m := max(n, 2)
	sets := map[string][]float64{}
	for _, k := range []float64{1, 1e4, 1e8, math.Inf(1)} {
		for _, dr := range []int{0, 16, 40} {
			spec := gen.Spec{N: m, Cond: k, DynRange: dr, Seed: uint64(n)*31 + uint64(dr)}
			sets[fmt.Sprintf("k=%g/dr=%d", k, dr)] = spec.Generate()[:n]
		}
	}
	fill := func(first, rest float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rest
		}
		xs[0] = first
		return xs
	}
	sets["ulpbelow"] = fill(1, 0x1p-53)
	sets["negulpbelow"] = fill(-1, -0x1p-53)
	sets["tenths"] = fill(0.1, 0.1)
	sets["zeros"] = fill(math.Copysign(0, -1), 0)
	sets["huge"] = fill(0x1p1000, 0x1p1000)
	sets["nan"] = fill(1.5, 1.5)
	sets["nan"][n/2] = math.NaN()
	alt, sub := make([]float64, n), make([]float64, n)
	for i := range alt {
		alt[i] = float64(1 - 2*(i%2))
		sub[i] = math.Ldexp(float64(i%5+1), -1074)
	}
	sets["alternating"], sets["subnormal"] = alt, sub
	return sets
}
