package selector

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/kernel"
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

// kernelZoo is the batch kernels' corpus — the generator corners at
// every length they special-case, plus zero-heavy and subnormal sets —
// and adds the extremes of the magnitude range, -0-only sets and
// poisoned ones.
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

// TestFusedProfileSumEquivalence pins the fused pass's two speculative
// sums bitwise against the standalone kernels: the ST shadow against
// kernel.ST always (non-finite values flow through both identically),
// and the compensated pair against kernel.Neumaier whenever the input
// holds no non-finite value and some nonzero one (the pass skips zeros,
// so an all -0 set keeps a +0 pair where the xs[0]-seeded kernel keeps
// -0).
func TestFusedProfileSumEquivalence(t *testing.T) {
	cases := kernelZoo()
	for name, xs := range fusedCases() {
		cases[name] = xs
	}
	for name, xs := range cases {
		fp := FusedProfileSum(xs)
		if got, want := fbits(fp.ST), fbits(kernel.ST(xs)); got != want {
			t.Errorf("%s: fused ST %x != kernel.ST %x", name, got, want)
		}
		if fp.Profile.N != int64(len(xs)) {
			t.Errorf("%s: N=%d", name, fp.Profile.N)
		}
		if fp.Profile.NonFinite || !fp.Profile.HasNonzero {
			continue
		}
		s, c := kernel.Neumaier(xs)
		if fbits(fp.Profile.Sum.S) != fbits(s) || fbits(fp.Profile.Sum.C) != fbits(c) {
			t.Errorf("%s: fused pair (%x,%x) != Neumaier (%x,%x)",
				name, fbits(fp.Profile.Sum.S), fbits(fp.Profile.Sum.C), fbits(s), fbits(c))
		}
	}
}

// TestFusedProfileSumNonFinite checks the poison protocol: NaN/±Inf set
// the flag and still flow through the ST shadow with IEEE semantics,
// while the profile arms skip them.
func TestFusedProfileSumNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{1.5, bad, -2.25, 0, 8}
		fp := FusedProfileSum(xs)
		p := fp.Profile
		if !p.NonFinite {
			t.Errorf("%v did not poison the profile", bad)
		}
		if got, want := fbits(fp.ST), fbits(kernel.ST(xs)); got != want {
			t.Errorf("%v: poisoned ST shadow %x != kernel.ST %x", bad, got, want)
		}
		// The profile arms must hold only the finite values.
		if p.Sum.S != 1.5-2.25+8 || p.SumAbs.S != 1.5+2.25+8 {
			t.Errorf("%v leaked into the profile sums: %g / %g", bad, p.Sum.S, p.SumAbs.S)
		}
		if p.Pos != 2 || p.Neg != 1 || p.N != 5 {
			t.Errorf("%v: counts pos=%d neg=%d n=%d", bad, p.Pos, p.Neg, p.N)
		}
	}
}

// TestFusedProfileSumAllocs pins the fused pass as allocation-free.
func TestFusedProfileSumAllocs(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1, DynRange: 8, Seed: 4096}.Generate()
	var sink FusedPass
	if n := testing.AllocsPerRun(100, func() {
		sink = FusedProfileSum(xs)
	}); n != 0 {
		t.Errorf("FusedProfileSum allocates %v per run", n)
	}
	_ = sink
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
// the full profile, the policy (through a fresh decision cache when s
// has one), then the selected operator — TunePR-sized for PR — or the
// ST fallback with Predicted +Inf for a poisoned profile. Its
// Selection holds Algorithm, Profile, Predicted, PRConfig and
// NonFinite.
func twoPassSum(s *Selector, xs []float64) (float64, Selection) {
	ref := &Selector{Policy: s.Policy, Req: s.Req}
	if s.Cache != nil {
		ref.Cache = NewDecisionCache(0)
	}
	prof := ProfileOf(xs)
	if prof.NonFinite {
		return sum.Standard(xs), Selection{Algorithm: sum.StandardAlg, Profile: prof,
			Predicted: math.Inf(1), NonFinite: true}
	}
	d := ref.Decide(prof)
	sel := Selection{Algorithm: d.Alg, Profile: prof, Predicted: d.Predicted}
	if d.Alg == sum.PreroundedAlg {
		sel.PRConfig = &d.PR
		return sum.PreroundedWith(d.PR, xs), sel
	}
	return d.Alg.Sum(xs), sel
}

// servedExact states, independently of the serving code, when the
// exact bypass serves a request: operands that the policy can only
// resolve to BN (onlyBN), and an exact sum of magnitude at most 2^1000
// (NaN for poisoned inputs) that is nonzero or comes from at least one
// nonzero operand.
func servedExact(s *Selector, xs []float64) bool {
	if !onlyBN(s, len(xs)) {
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

// onlyBN is the (tolerance, n) rule of the exact bypass: n >= 2 and
// tolerance 0 under the heuristic or the bound-driven policy, or, under
// the heuristic, a tolerance below its ST prediction 2u·√n·k at
// k = 1 - 2n·u, a floor under the condition numbers a profile of n
// values can compute. The expression keeps HeuristicPolicy.Predict's
// evaluation order, so it rounds the same way.
func onlyBN(s *Selector, n int) bool {
	if n < 2 {
		return false
	}
	tol := s.Req.Tolerance
	switch s.Policy.(type) {
	case HeuristicPolicy:
		u, nf := fpu.UnitRoundoff, float64(n)
		return tol == 0 || 2*u*math.Sqrt(nf)*(1-2*nf*u) > tol
	case ProbabilisticPolicy:
		return tol == 0
	}
	return false
}

// FuzzSelectAndSum differentially fuzzes the serving call against the
// two-pass oracle, with and without the decision cache: the same bits,
// Algorithm and NonFinite, and the report shape of a bypassed request
// (checkServed). A tolerance-0 answer and every BN answer must also
// equal superacc.Sum. The seeds are the files under
// testdata/fuzz/FuzzSelectAndSum (sizes at each threshold of onlyBN,
// same-sign sets whose computed Cond is below 1, tolerances at the
// data's own ST prediction); plain go test replays them.
//
// The input decodes as follows (bytes past the end read as 0):
//
//	data[0]     tolerance: %9 below 7 indexes bypassThresholds; 7 takes
//	            the raw bits of data[1:9]; 8 takes the data's own ST
//	            prediction, moved int8(data[1]) ulps
//	data[9:12]  n, 24-bit little endian, mod 2^18+1; at least the
//	            number of operands
//	data[12]    low 7 bits %5: the fill after the operands, a gen.Spec
//	            set of Cond {1, 1e4, 1e8, +Inf} and DynRange data[13]%48
//	            seeded by data[13], or (4) the last operand repeated;
//	            high bit: ProbabilisticPolicy instead of the heuristic
//	data[14:]   operands, 8 little-endian bytes each
func FuzzSelectAndSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, xs := decodeSelectSum(data)
		for _, cached := range []bool{false, true} {
			s.Cache = nil
			if cached {
				s.Cache = NewDecisionCache(0)
			}
			where := fmt.Sprintf("%T tol=%g n=%d cached=%v", s.Policy, s.Req.Tolerance, len(xs), cached)
			got, sel, _ := checkServed(t, where, s, xs)
			if sel.NonFinite || (s.Req.Tolerance != 0 && sel.Algorithm != sum.BinnedAlg) {
				continue
			}
			if exact := superacc.Sum(xs); got != exact {
				t.Errorf("%s: %v answered %x, exact %x", where, sel.Algorithm, fbits(got), fbits(exact))
			}
		}
	})
}

// decodeSelectSum builds FuzzSelectAndSum's selector and data.
func decodeSelectSum(data []byte) (*Selector, []float64) {
	var hdr [14]byte
	copy(hdr[:], data)
	var ops []float64
	for b := data[min(len(data), len(hdr)):]; len(b) >= 8; b = b[8:] {
		ops = append(ops, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	n := int(hdr[9]) | int(hdr[10])<<8 | int(hdr[11])<<16
	xs := make([]float64, max(n%(1<<18+1), len(ops)))
	copy(xs, ops)
	if rest := xs[len(ops):]; len(rest) > 0 {
		if fill := (hdr[12] & 0x7f) % 5; fill < 4 {
			k := []float64{1, 1e4, 1e8, math.Inf(1)}[fill]
			spec := gen.Spec{N: max(len(rest), 2), Cond: k, DynRange: int(hdr[13] % 48), Seed: uint64(hdr[13])}
			copy(rest, spec.Generate())
		} else if len(ops) > 0 {
			for i := range rest {
				rest[i] = ops[len(ops)-1]
			}
		}
	}
	s := &Selector{Policy: NewHeuristicPolicy()}
	if hdr[12]&0x80 != 0 {
		s.Policy = NewProbabilisticPolicy(0)
	}
	switch m := int(hdr[0] % 9); {
	case m < len(bypassThresholds):
		s.Req.Tolerance = bypassThresholds[m].tol
	case m == 7:
		s.Req.Tolerance = math.Float64frombits(binary.LittleEndian.Uint64(hdr[1:9]))
	default:
		tol := NewHeuristicPolicy().Predict(sum.StandardAlg, ProfileOf(xs))
		steps, dir := int(int8(hdr[1])), math.Inf(1)
		if steps < 0 {
			steps, dir = -steps, math.Inf(-1)
		}
		for ; steps > 0; steps-- {
			tol = math.Nextafter(tol, dir)
		}
		s.Req.Tolerance = tol
	}
	return s, xs
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
			want, ref := twoPassSum(s, xs)
			if sel.Algorithm != ref.Algorithm {
				t.Errorf("%s tol=%g: fused chose %v, two-pass %v", name, tol, sel.Algorithm, ref.Algorithm)
				continue
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s tol=%g (%v): fused %x != two-pass %x",
					name, tol, sel.Algorithm, fbits(got), fbits(want))
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
			if sel.Algorithm != wantAlg {
				t.Fatalf("%s: Static{%v} chose %v, want %v", name, alg, sel.Algorithm, wantAlg)
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
			want, ref := twoPassSum(v.s, xs)
			if sel.Algorithm != ref.Algorithm {
				t.Errorf("%s: chose %v, two-pass %v", where, sel.Algorithm, ref.Algorithm)
				continue
			}
			if fbits(got) != fbits(want) {
				t.Errorf("%s (%v): %x != two-pass %x", where, sel.Algorithm, fbits(got), fbits(want))
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
				if !sel.NonFinite || sel.Algorithm != sum.StandardAlg || !sel.Fast {
					t.Errorf("%s: poisoned selection %+v", where, sel)
				}
			default:
				alg, _ := s.Policy.Select(prof, s.Req)
				if alg != sel.Algorithm {
					t.Errorf("%s: chose %v, legacy %v", where, sel.Algorithm, alg)
					continue
				}
				if alg == sum.PreroundedAlg {
					cfg := TunePR(prof, s.Req)
					if sel.PRConfig == nil || *sel.PRConfig != cfg {
						t.Errorf("%s: PR config %+v, want %+v", where, sel.PRConfig, cfg)
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
				t.Errorf("%s (%v): %x != %x", where, sel.Algorithm, fbits(got), fbits(want))
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
		ex := &Selector{Policy: pol, Cache: NewDecisionCache(0)}
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
