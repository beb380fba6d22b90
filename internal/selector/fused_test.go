package selector

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sum"
	"repro/internal/superacc"
)

func fbits(v float64) uint64 { return math.Float64bits(v) }

// fusedCases spans the generator corners plus the fused loop's
// special-cased inputs: zeros (both signs), subnormals, poison, empty.
func fusedCases() map[string][]float64 {
	cases := map[string][]float64{
		"empty":  nil,
		"single": {3.25},
		"zeros":  {0, math.Copysign(0, -1), 0},
	}
	for name, spec := range map[string]gen.Spec{
		"benign":    {N: 5000, Cond: 1, DynRange: 8, Seed: 21},
		"illcond":   {N: 5000, Cond: 1e8, DynRange: 24, Seed: 22},
		"sumzero":   {N: 5000, Cond: math.Inf(1), DynRange: 32, Seed: 23},
		"widerange": {N: 4097, Cond: 1e4, DynRange: 40, Seed: 24},
	} {
		cases[name] = spec.Generate()
	}
	sub := make([]float64, 999)
	for i := range sub {
		sub[i] = math.Ldexp(float64(i%5+1), -1070-i%4)
	}
	cases["subnormal"] = sub
	poisoned := gen.Spec{N: 1000, Cond: 1, DynRange: 4, Seed: 25}.Generate()
	poisoned[500] = math.Inf(-1)
	cases["poisoned"] = poisoned
	nan := gen.Spec{N: 1000, Cond: 1, DynRange: 4, Seed: 26}.Generate()
	nan[7] = math.NaN()
	cases["nan"] = nan
	return cases
}

// kernelZoo mirrors the kernel package's fusedInputs corpus — the
// generator corners at every length the batch kernels special-case,
// plus zero-heavy and subnormal sets — and adds the extremes of the
// magnitude range, -0-only sets and poisoned ones.
func kernelZoo() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	zoo := map[string][]float64{
		"single":      {3.25},
		"negsingle":   {-0x1p-40},
		"minsub":      {0x1p-1074},
		"minsubpair":  {-0x1p-1074, 0x1p-1074, 0x1p-1074},
		"maxfloat":    {math.MaxFloat64},
		"maxpair":     {math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64},
		"maxoverflow": {math.MaxFloat64, math.MaxFloat64, 1},
		"negzero":     {negZero},
		"negzeros":    {negZero, negZero, negZero, negZero, negZero},
		"extremes":    {0x1p-1074, math.MaxFloat64, -0x1p-1022, -math.MaxFloat64, 0x1p-1074},
		"nanonly":     {math.NaN()},
		"poisonmix":   {negZero, 0x1p-1074, math.Inf(1), -2, math.NaN(), math.MaxFloat64},
		"infpair":     {math.Inf(-1), 0, math.Inf(1)},
	}
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097} {
		for name, spec := range map[string]gen.Spec{
			"benign":    {N: n, Cond: 1, DynRange: 8, Seed: uint64(n)},
			"illcond":   {N: n, Cond: 1e8, DynRange: 24, Seed: uint64(n) + 1},
			"sumzero":   {N: n, Cond: math.Inf(1), DynRange: 32, Seed: uint64(n) + 2},
			"widerange": {N: n, Cond: 1e4, DynRange: 40, Seed: uint64(n) + 3},
		} {
			zoo[fmt.Sprintf("%s/n=%d", name, n)] = spec.Generate()
		}
		zeros := make([]float64, n)
		for i := range zeros {
			if i%3 == 0 {
				zeros[i] = float64(i%7) - 3
			}
		}
		zeros[1] = negZero
		zoo[fmt.Sprintf("zeroheavy/n=%d", n)] = zeros
		sub := make([]float64, n)
		for i := range sub {
			sub[i] = math.Ldexp(float64(i%5+1), -1070-i%4)
		}
		sub[n/2] = 0x1p-1022
		zoo[fmt.Sprintf("subnormal/n=%d", n)] = sub
		poisoned := append([]float64(nil), sub...)
		poisoned[n-1] = math.Inf(-1)
		zoo[fmt.Sprintf("poisoned/n=%d", n)] = poisoned
	}
	return zoo
}

// TestFusedPassMatchesProfileOf pins the fused pass's profile
// bit-identical (every field, compensated pairs compared bit for bit)
// to the legacy ProfileOf — whose per-element observe loop is the
// oracle for the lean kernel's branch-free bookkeeping — and its
// speculative ST sum to sum.Standard.
func TestFusedPassMatchesProfileOf(t *testing.T) {
	cases := kernelZoo()
	for name, xs := range fusedCases() {
		cases[name] = xs
	}
	for name, xs := range cases {
		fp := FusedProfileSum(xs)
		if ref := ProfileOf(xs); !sameProfile(fp.Profile, ref) {
			t.Errorf("%s: fused profile %+v != ProfileOf %+v", name, fp.Profile, ref)
		}
		if fbits(fp.ST) != fbits(sum.Standard(xs)) {
			t.Errorf("%s: fused ST != sum.Standard", name)
		}
	}
}

// TestFusedSpecSum pins the speculation protocol: ST always served,
// Neumaier served bit-identical to sum.Neumaier on clean data and
// refused on poisoned or overflowed accumulations, everything else
// escalated.
func TestFusedSpecSum(t *testing.T) {
	for name, xs := range fusedCases() {
		fp := FusedProfileSum(xs)
		v, ok := fp.SpecSum(sum.StandardAlg)
		if !ok || fbits(v) != fbits(sum.Standard(xs)) {
			t.Errorf("%s: ST speculation wrong (ok=%v)", name, ok)
		}
		v, ok = fp.SpecSum(sum.NeumaierAlg)
		if fp.Profile.NonFinite {
			if ok {
				t.Errorf("%s: Neumaier speculation served on poisoned data", name)
			}
		} else if !ok || fbits(v) != fbits(sum.Neumaier(xs)) {
			t.Errorf("%s: Neumaier speculation wrong (ok=%v, %x vs %x)",
				name, ok, fbits(v), fbits(sum.Neumaier(xs)))
		}
		for _, alg := range []sum.Algorithm{sum.PairwiseAlg, sum.KahanAlg,
			sum.CompositeAlg, sum.PreroundedAlg} {
			if _, ok := fp.SpecSum(alg); ok {
				t.Errorf("%s: speculation claimed to hold %v", name, alg)
			}
		}
	}
	// Intermediate overflow: the pair goes non-finite while no input is,
	// and speculation must refuse rather than return bits that can
	// diverge from the branched recurrence.
	over := []float64{1e308, 1e308, -1e308}
	fp := FusedProfileSum(over)
	if fp.Profile.NonFinite {
		t.Fatal("overflowed accumulator must not set the input poison flag")
	}
	if _, ok := fp.SpecSum(sum.NeumaierAlg); ok {
		t.Error("Neumaier speculation served past an intermediate overflow")
	}
}

// twoPassSum is the serial two-pass oracle for the fused serving call:
// profile, policy, then the selected operator — TunePR-sized for PR,
// and the ST fallback for poisoned inputs.
func twoPassSum(s *Selector, xs []float64) (float64, sum.Algorithm) {
	prof := ProfileOf(xs)
	if prof.NonFinite {
		return sum.Standard(xs), sum.StandardAlg
	}
	alg, _ := s.Policy.Select(prof, s.Req)
	if alg == sum.PreroundedAlg {
		return sum.PreroundedWith(TunePR(prof, s.Req), xs), alg
	}
	return alg.Sum(xs), alg
}

// servedExact states, independently of the serving code, when the
// exact bypass serves a request: tolerance 0, an analytic policy (the
// heuristic or the bound-driven policy), at least two operands, and an
// exact sum of magnitude at most 2^1000 (NaN for poisoned inputs) that
// is nonzero or comes from at least one nonzero operand.
func servedExact(s *Selector, xs []float64) bool {
	if s.Req.Tolerance != 0 || len(xs) < 2 {
		return false
	}
	switch s.Policy.(type) {
	case HeuristicPolicy, ProbabilisticPolicy:
	default:
		return false
	}
	v := math.Abs(superacc.Sum(xs))
	if v == 0 {
		for _, x := range xs {
			if x != 0 {
				return true
			}
		}
		return false
	}
	return v <= 0x1p1000
}

// wantProfile is the profile a selection must report: Profile{N: n}
// on a request the exact bypass served, ref otherwise.
func wantProfile(s *Selector, xs []float64, ref Profile) Profile {
	if servedExact(s, xs) {
		return Profile{N: int64(len(xs))}
	}
	return ref
}

// TestSelectorSumFusedEquivalence pins SelectAndSum bit-identical to
// the two-pass route for every tolerance regime, including escalations.
func TestSelectorSumFusedEquivalence(t *testing.T) {
	for name, xs := range fusedCases() {
		for _, tol := range []float64{1e-6, 1e-9, 1e-12, 1e-15, 0} {
			s := New(tol)
			got, sel := s.SelectAndSum(xs)
			want, wantAlg := twoPassSum(s, xs)
			if sel.Alg != wantAlg {
				t.Errorf("%s tol=%g: fused chose %v, two-pass %v", name, tol, sel.Alg, wantAlg)
				continue
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s tol=%g (%v): fused %x != two-pass %x",
					name, tol, sel.Alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestSelectorSumStaticAlgorithms forces every algorithm through
// SelectAndSum with a Static policy and pins the result against the
// algorithm's own serial operator (PR at its TunePR configuration) —
// fast paths and escalations alike. Poisoned inputs take the ST
// fallback whatever the policy.
func TestSelectorSumStaticAlgorithms(t *testing.T) {
	for name, xs := range fusedCases() {
		prof := ProfileOf(xs)
		for _, alg := range sum.Algorithms {
			s := New(0)
			s.Policy = Static{Alg: alg}
			got, sel := s.SelectAndSum(xs)
			want, wantAlg := alg.Sum(xs), alg
			switch {
			case prof.NonFinite:
				want, wantAlg = sum.Standard(xs), sum.StandardAlg
			case alg == sum.PreroundedAlg:
				want = sum.PreroundedWith(TunePR(prof, s.Req), xs)
			}
			if sel.Alg != wantAlg {
				t.Fatalf("%s: Static{%v} chose %v, want %v", name, alg, sel.Alg, wantAlg)
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s %v: fused %x != serial %x", name, alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestSelectAndSumParallelPolicies pins SelectAndSum against the serial
// two-pass route for a policy set wider than the tolerance ladder: same
// profile bits, same selection, same sum bits, and the poisoned flag.
// The set covers the heuristic ladder, a bound-driven policy whose λ and
// plan make its bounds differ from ComputeBounds(prof, 0), and every
// algorithm forced through Static — PR at its TunePR configuration, ST
// and Neumaier on the speculative fast path. The name is kept from the
// engine variant of the serving call that this test covered before that
// variant was deleted.
func TestSelectAndSumParallelPolicies(t *testing.T) {
	type variant struct {
		name string
		s    *Selector
	}
	var variants []variant
	for _, tol := range []float64{1e-6, 1e-12, 0} {
		variants = append(variants, variant{fmt.Sprintf("tol=%g", tol), New(tol)})
	}
	prob := New(1e-12)
	prob.Policy = ProbabilisticPolicy{Lambda: 3, Plan: BalancedPlan}
	variants = append(variants, variant{"probabilistic", prob})
	for _, alg := range sum.Algorithms {
		s := New(0)
		s.Policy = Static{Alg: alg}
		variants = append(variants, variant{"static=" + alg.String(), s})
	}
	for name, xs := range fusedCases() {
		prof := ProfileOf(xs)
		for _, v := range variants {
			where := fmt.Sprintf("%s %s", name, v.name)
			got, sel := v.s.SelectAndSum(xs)
			if sel.Profile != wantProfile(v.s, xs, prof) {
				t.Errorf("%s: profile diverges from ProfileOf", where)
			}
			if sel.NonFinite != prof.NonFinite {
				t.Errorf("%s: NonFinite=%v, want %v", where, sel.NonFinite, prof.NonFinite)
			}
			want, wantAlg := twoPassSum(v.s, xs)
			if sel.Alg != wantAlg {
				t.Errorf("%s: chose %v, two-pass %v", where, sel.Alg, wantAlg)
				continue
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s (%v): %x != two-pass %x", where, sel.Alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestSelectAndSumEquivalence pins the serving call against the legacy
// core-style route: poisoned inputs fall back to sum.Standard, PR
// selections run the TunePR configuration, everything else alg.Sum.
// Besides the heuristic at three tolerances it runs a bound-driven
// policy whose λ and plan make its bounds differ from
// ComputeBounds(prof, 0).
func TestSelectAndSumEquivalence(t *testing.T) {
	prob := New(1e-12)
	prob.Policy = ProbabilisticPolicy{Lambda: 3, Plan: BalancedPlan}
	selectors := []*Selector{New(1e-6), New(1e-12), New(0), prob}
	for name, xs := range fusedCases() {
		for _, s := range selectors {
			where := fmt.Sprintf("%s %T tol=%g", name, s.Policy, s.Req.Tolerance)
			got, sel := s.SelectAndSum(xs)
			prof := ProfileOf(xs)
			if sel.Profile != wantProfile(s, xs, prof) {
				t.Errorf("%s: selection profile diverges", where)
			}
			var want float64
			switch {
			case prof.NonFinite:
				want = sum.Standard(xs)
				if !sel.NonFinite || sel.Alg != sum.StandardAlg || !sel.Fast {
					t.Errorf("%s: poisoned selection %+v", where, sel)
				}
			default:
				alg, _ := s.Policy.Select(prof, s.Req)
				if alg != sel.Alg {
					t.Errorf("%s: chose %v, legacy %v", where, sel.Alg, alg)
					continue
				}
				if alg == sum.PreroundedAlg {
					cfg := TunePR(prof, s.Req)
					if sel.PR == nil || *sel.PR != cfg {
						t.Errorf("%s: PR config %+v, want %+v", where, sel.PR, cfg)
					}
					want = sum.PreroundedWith(cfg, xs)
				} else {
					want = alg.Sum(xs)
				}
				if wantFast := alg == sum.StandardAlg || alg == sum.NeumaierAlg; sel.Fast != wantFast {
					t.Errorf("%s (%v): Fast=%v", where, alg, sel.Fast)
				}
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s (%v): %x != %x", where, sel.Alg, fbits(got), fbits(want))
			}
		}
	}
}

// TestFusedFastPathAllocs pins the speculative serving calls as
// allocation-free on the ST and Neumaier fast paths and on the
// tolerance-0 exact bypass — the acceptance bar for the steady-state
// serving loop.
func TestFusedFastPathAllocs(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1, DynRange: 4, Seed: 32}.Generate()
	var sink float64
	st := New(1e-9) // analytic policy picks ST for this data
	if a := st.Decide(ProfileOf(xs)).Alg; a != sum.StandardAlg {
		t.Fatal("fixture no longer selects ST")
	}
	if n := testing.AllocsPerRun(100, func() {
		sink, _ = st.SelectAndSum(xs)
	}); n != 0 {
		t.Errorf("ST fast path allocates %v per run", n)
	}
	nm := New(0)
	nm.Policy = Static{Alg: sum.NeumaierAlg}
	if n := testing.AllocsPerRun(100, func() {
		sink, _ = nm.SelectAndSum(xs)
	}); n != 0 {
		t.Errorf("Neumaier fast path allocates %v per run", n)
	}
	for _, pol := range []Policy{NewHeuristicPolicy(), NewProbabilisticPolicy(0)} {
		ex := &Selector{Policy: pol, Cache: NewDecisionCache(CacheConfig{})}
		if _, sel := ex.SelectAndSum(xs); sel.Bounds != (Bounds{}) {
			t.Fatalf("%T: fixture does not take the exact bypass", pol)
		}
		if n := testing.AllocsPerRun(100, func() {
			sink, _ = ex.SelectAndSum(xs)
		}); n != 0 {
			t.Errorf("%T: exact bypass allocates %v per run", pol, n)
		}
	}
	_ = sink
}
