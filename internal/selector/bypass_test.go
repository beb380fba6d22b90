package selector

import (
	"fmt"
	"math"
	"testing"

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

// bypassOracle is the independent two-pass route for s on xs: the full
// profile, the policy through a fresh decision cache when s has one,
// then the chosen operator — or the ST fallback for a poisoned profile.
func bypassOracle(s *Selector, xs []float64) (float64, sum.Algorithm, Profile) {
	ref := &Selector{Policy: s.Policy, Req: s.Req}
	if s.Cache != nil {
		ref.Cache = NewDecisionCache(CacheConfig{})
	}
	prof := ProfileOf(xs)
	if prof.NonFinite {
		return sum.Standard(xs), sum.StandardAlg, prof
	}
	d := ref.Decide(prof)
	if d.Alg == sum.PreroundedAlg {
		return sum.PreroundedWith(d.PR, xs), d.Alg, prof
	}
	return d.Alg.Sum(xs), d.Alg, prof
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

// TestSelectAndSumExactBypass pins the tolerance-0 bypass against the
// two-pass oracle: the same bits, Algorithm and NonFinite on every
// input, with and without the decision cache. Under the analytic policies a served
// request reports Profile{N: n}, BN, Predicted 0, zero Bounds and Fast
// false. Every other request reports the full profile, and every other
// policy profiles every request: Static (PR must still be tuned) and
// the calibrated table.
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
					s.Cache = NewDecisionCache(CacheConfig{})
				}
				where := fmt.Sprintf("%s %s cached=%v", name, p.name, cached)
				got, sel := s.SelectAndSum(xs)
				want, wantAlg, prof := bypassOracle(s, xs)
				if sel.Alg != wantAlg || fbits(got) != fbits(want) || sel.NonFinite != prof.NonFinite {
					t.Errorf("%s: got %v %x NonFinite=%v, oracle %v %x NonFinite=%v",
						where, sel.Alg, fbits(got), sel.NonFinite, wantAlg, fbits(want), prof.NonFinite)
				}
				if wantAlg == sum.PreroundedAlg && sel.PR == nil {
					t.Errorf("%s: PR served without its tuned configuration", where)
				}
				if servedExact(s, xs) {
					served[name]++
					if exact := (Selection{Profile: Profile{N: int64(len(xs))}, Alg: sum.BinnedAlg}); sel != exact {
						t.Errorf("%s: bypassed selection %+v, want %+v", where, sel, exact)
					}
				} else if !sameProfile(sel.Profile, prof) {
					t.Errorf("%s: full-path profile %+v, want %+v", where, sel.Profile, prof)
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
}
