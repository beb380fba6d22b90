package tree

import (
	"math"
	"testing"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/sum"
)

func mixedSet(n int, seed uint64) []float64 {
	r := fpu.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(40)-20)
		if r.Bool() {
			v = -v
		}
		xs[i] = v
	}
	return xs
}

func TestShapesSumExactSets(t *testing.T) {
	// With exactly representable data every shape must return the exact
	// sum under every algorithm.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	r := fpu.NewRNG(1)
	for _, shape := range Shapes {
		for trial := 0; trial < 5; trial++ {
			p := NewPlan(shape, len(xs), r)
			if got := Reduce[float64](sum.STMonoid{}, p, xs); got != 55 {
				t.Errorf("%v ST = %g, want 55", shape, got)
			}
			if got := Reduce[sum.PRState](sum.DefaultPRConfig().Monoid(), p, xs); got != 55 {
				t.Errorf("%v PR = %g, want 55", shape, got)
			}
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	xs := mixedSet(1000, 2)
	r := fpu.NewRNG(3)
	for _, shape := range Shapes {
		p := NewPlan(shape, len(xs), r)
		ex := NewExecutor[float64](sum.STMonoid{})
		a := ex.Run(p, xs)
		b := ex.Run(p, xs)
		c := Reduce[float64](sum.STMonoid{}, p, xs) // fresh executor
		if a != b || b != c {
			t.Errorf("%v: plan not deterministic: %g %g %g", shape, a, b, c)
		}
	}
}

func TestIdentityUnbalancedEqualsStandard(t *testing.T) {
	xs := mixedSet(500, 4)
	got := Reduce[float64](sum.STMonoid{}, IdentityPlan(Unbalanced), xs)
	if want := sum.Standard(xs); got != want {
		t.Errorf("identity unbalanced ST %g != Standard %g", got, want)
	}
}

func TestPermutationChangesSTResult(t *testing.T) {
	// The heart of the paper: same data, same shape, different leaf
	// assignment => different ST result (for ill-conditioned data).
	xs := mixedSet(4096, 5)
	r := fpu.NewRNG(6)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		seen[Reduce[float64](sum.STMonoid{}, NewPlan(Unbalanced, len(xs), r), xs)] = true
	}
	if len(seen) < 2 {
		t.Error("expected ST to vary across leaf assignments")
	}
}

func TestPRInvariantAcrossAllShapesAndPerms(t *testing.T) {
	xs := mixedSet(2048, 7)
	m := sum.DefaultPRConfig().Monoid()
	r := fpu.NewRNG(8)
	want := sum.Prerounded(xs)
	for _, shape := range Shapes {
		for i := 0; i < 10; i++ {
			got := Reduce[sum.PRState](m, NewPlan(shape, len(xs), r), xs)
			if got != want {
				t.Fatalf("PR varied under %v: %g vs %g", shape, got, want)
			}
		}
	}
}

func TestSpreadOrderingAcrossAlgorithms(t *testing.T) {
	// spread(ST) >= spread(K) >= spread(CP) >= spread(PR) == 0 on a
	// hard cancelling set — the Fig 7 shape assertion at small scale.
	r := fpu.NewRNG(9)
	base := make([]float64, 0, 4096)
	for i := 0; i < 2048; i++ {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(32)-16)
		base = append(base, v, -v)
	}
	r.Shuffle(base)
	spreadOf := func(res []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range res {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	trials := 40
	sST := spreadOf(Spread(NewLane[float64](sum.STMonoid{}), Unbalanced, base, trials, fpu.NewRNG(10)))
	sK := spreadOf(Spread(NewLane[sum.KState](sum.KahanMonoid{}), Unbalanced, base, trials, fpu.NewRNG(10)))
	sCP := spreadOf(Spread(NewLane(sum.CPMonoid{}), Unbalanced, base, trials, fpu.NewRNG(10)))
	sPR := spreadOf(Spread(NewLane[sum.PRState](sum.DefaultPRConfig().Monoid()), Unbalanced, base, trials, fpu.NewRNG(10)))
	if sPR != 0 {
		t.Errorf("PR spread must be exactly 0, got %g", sPR)
	}
	if sCP > sK || sK > sST {
		t.Errorf("spread ladder violated: ST=%g K=%g CP=%g", sST, sK, sCP)
	}
	if sST == 0 {
		t.Error("expected nonzero ST spread on hard set")
	}
}

func TestBlockedMatchesManualTwoLevel(t *testing.T) {
	xs := mixedSet(100, 11)
	p := Plan{Shape: Blocked, Blocks: 4}
	got := Reduce[float64](sum.STMonoid{}, p, xs)
	// Manual: 4 serial blocks of 25, then pairwise merge.
	var b [4]float64
	for i := 0; i < 4; i++ {
		for _, x := range xs[i*25 : (i+1)*25] {
			b[i] += x
		}
	}
	want := (b[0] + b[1]) + (b[2] + b[3])
	if got != want {
		t.Errorf("blocked = %g, want %g", got, want)
	}
}

func TestBlockedDefaultsAndOversizedBlocks(t *testing.T) {
	xs := mixedSet(10, 12)
	// Blocks > n must degrade gracefully.
	p := Plan{Shape: Blocked, Blocks: 100}
	got := Reduce[float64](sum.STMonoid{}, p, xs)
	ref := bigref.SumFloat64(xs)
	if math.Abs(got-ref) > 1e-9*math.Abs(ref)+1e-12 {
		t.Errorf("oversized blocks: %g vs %g", got, ref)
	}
	// Zero Blocks uses the default.
	if (Plan{Shape: Blocked}).blocks() != 16 {
		t.Error("default blocks != 16")
	}
}

func TestDepth(t *testing.T) {
	if d := IdentityPlan(Unbalanced).Depth(100); d != 99 {
		t.Errorf("unbalanced depth = %d, want 99", d)
	}
	if d := IdentityPlan(Balanced).Depth(1024); d != 10 {
		t.Errorf("balanced depth = %d, want 10", d)
	}
	if d := IdentityPlan(Balanced).Depth(1000); d != 10 {
		t.Errorf("balanced depth(1000) = %d, want 10", d)
	}
	if d := IdentityPlan(Balanced).Depth(1); d != 0 {
		t.Errorf("depth(1) = %d", d)
	}
	p := Plan{Shape: Blocked, Blocks: 4}
	if d := p.Depth(100); d != 24+2 {
		t.Errorf("blocked depth = %d, want 26", d)
	}
}

func TestRandomShapeUsesSeed(t *testing.T) {
	xs := mixedSet(512, 13)
	p1 := Plan{Shape: Random, Seed: 1}
	p2 := Plan{Shape: Random, Seed: 2}
	a := Reduce[float64](sum.STMonoid{}, p1, xs)
	b := Reduce[float64](sum.STMonoid{}, p2, xs)
	// Same seed reproduces; different seeds (almost surely) differ for
	// this ill-conditioned set.
	if a != Reduce[float64](sum.STMonoid{}, p1, xs) {
		t.Error("random shape not reproducible from seed")
	}
	if a == b {
		t.Log("warning: two seeds coincided; acceptable but unexpected")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, shape := range Shapes {
		if got := Reduce[float64](sum.STMonoid{}, IdentityPlan(shape), nil); got != 0 {
			t.Errorf("%v empty = %g", shape, got)
		}
		if got := Reduce[float64](sum.STMonoid{}, IdentityPlan(shape), []float64{42}); got != 42 {
			t.Errorf("%v single = %g", shape, got)
		}
	}
}

func TestBadPermPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched perm length")
		}
	}()
	p := Plan{Shape: Balanced, Perm: []int{0, 1}}
	Reduce[float64](sum.STMonoid{}, p, []float64{1, 2, 3})
}

func TestBalancedMatchesPairwiseReference(t *testing.T) {
	// Identity balanced plan over a power-of-two set must equal the
	// textbook pairwise pattern.
	xs := mixedSet(8, 14)
	got := Reduce[float64](sum.STMonoid{}, IdentityPlan(Balanced), xs)
	want := ((xs[0] + xs[1]) + (xs[2] + xs[3])) + ((xs[4] + xs[5]) + (xs[6] + xs[7]))
	if got != want {
		t.Errorf("balanced = %g, want %g", got, want)
	}
}

func TestExecutorReuseNoCrossContamination(t *testing.T) {
	ex := NewExecutor[float64](sum.STMonoid{})
	a := mixedSet(100, 15)
	b := mixedSet(37, 16)
	ra1 := ex.Run(IdentityPlan(Balanced), a)
	rb := ex.Run(IdentityPlan(Balanced), b)
	ra2 := ex.Run(IdentityPlan(Balanced), a)
	if ra1 != ra2 {
		t.Errorf("executor reuse changed result: %g vs %g", ra1, ra2)
	}
	_ = rb
}

func TestKnomialShape(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	// Radix 3 over 9 leaves: ((1+2+3) + (4+5+6) + (7+8+9)).
	p := Plan{Shape: Knomial, Radix: 3}
	if got := Reduce[float64](sum.STMonoid{}, p, xs); got != 45 {
		t.Errorf("knomial sum = %g", got)
	}
	// Radix n degenerates to the serial fold.
	pn := Plan{Shape: Knomial, Radix: len(xs)}
	if got, want := Reduce[float64](sum.STMonoid{}, pn, xs), sum.Standard(xs); got != want {
		t.Errorf("radix-n knomial %g != serial %g", got, want)
	}
	// Radix 2 must match the balanced executor on powers of two.
	xs8 := mixedSet(8, 21)
	p2 := Plan{Shape: Knomial, Radix: 2}
	if got, want := Reduce[float64](sum.STMonoid{}, p2, xs8),
		Reduce[float64](sum.STMonoid{}, IdentityPlan(Balanced), xs8); got != want {
		t.Errorf("radix-2 knomial %g != balanced %g", got, want)
	}
	// Default radix applies when unset.
	if got := Reduce[float64](sum.STMonoid{}, Plan{Shape: Knomial}, xs); got != 45 {
		t.Errorf("default radix sum = %g", got)
	}
}

func TestKnomialDepth(t *testing.T) {
	p := Plan{Shape: Knomial, Radix: 4}
	// 16 leaves at radix 4: two levels of 3 merges each on the path.
	if d := p.Depth(16); d != 6 {
		t.Errorf("knomial depth(16) = %d, want 6", d)
	}
	if d := p.Depth(1); d != 0 {
		t.Errorf("depth(1) = %d", d)
	}
}

func TestKnomialPRInvariant(t *testing.T) {
	xs := mixedSet(999, 22)
	want := sum.Prerounded(xs)
	r := fpu.NewRNG(23)
	for radix := 2; radix <= 8; radix++ {
		p := NewPlan(Knomial, len(xs), r)
		p.Radix = radix
		if got := Reduce[sum.PRState](sum.DefaultPRConfig().Monoid(), p, xs); got != want {
			t.Errorf("radix %d: PR varied", radix)
		}
	}
}
