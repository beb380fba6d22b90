package sum

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/reduce"
)

// hardSet builds a mixed-sign, wide-dynamic-range set whose exact sum is
// known via the exact oracle.
func hardSet(n int, seed uint64) []float64 {
	r := fpu.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		e := r.Intn(32) - 16
		v := math.Ldexp(r.Float64()+0.5, e)
		if r.Bool() {
			v = -v
		}
		xs[i] = v
	}
	return xs
}

func TestSimpleExactCases(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{42}, 42},
		{[]float64{1, 2, 3, 4}, 10},
		{[]float64{-1.5, 1.5}, 0},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 1},
	}
	for _, alg := range Algorithms {
		for _, c := range cases {
			if got := alg.Sum(c.xs); got != c.want {
				t.Errorf("%v.Sum(%v) = %g, want %g", alg, c.xs, got, c.want)
			}
		}
	}
}

func TestAbsorptionExample(t *testing.T) {
	// The paper's Section II-A example: a=1e9, b=-1e9, c=1e-9.
	a, b, c := 1e9, -1e9, 1e-9
	if got := (a + b) + c; got != 1e-9 {
		t.Fatalf("(a+b)+c = %g", got)
	}
	if got := a + (b + c); got != 0 {
		t.Fatalf("a+(b+c) = %g — expected absorption", got)
	}
	// Compensated summation recovers the small term regardless of order.
	for _, alg := range []Algorithm{CompositeAlg, NeumaierAlg} {
		if got := alg.Sum([]float64{a, b, c}); got != 1e-9 {
			t.Errorf("%v lost the small term: %g", alg, got)
		}
	}
	// Prerounded summation may round the small term (it sits ~90 bits
	// below the window top here) but must do so identically in every
	// order — reproducibility, not exactness, is its contract.
	p1 := Prerounded([]float64{a, b, c})
	p2 := Prerounded([]float64{c, b, a})
	p3 := Prerounded([]float64{b, c, a})
	if p1 != p2 || p2 != p3 {
		t.Errorf("PR order-dependent: %g %g %g", p1, p2, p3)
	}
	if rel := math.Abs(p1-c) / c; rel > 1e-8 {
		t.Errorf("PR too far from the true sum: rel err %g", rel)
	}
}

func TestKahanClassicWeakness(t *testing.T) {
	// Neumaier's canonical example: Kahan returns 0, the true sum is 2.
	xs := []float64{1, 1e100, 1, -1e100}
	if got := Kahan(xs); got != 0 {
		t.Errorf("Kahan(%v) = %g; expected the classic failure value 0", xs, got)
	}
	if got := Neumaier(xs); got != 2 {
		t.Errorf("Neumaier(%v) = %g, want 2", xs, got)
	}
	if got := Composite(xs); got != 2 {
		t.Errorf("Composite(%v) = %g, want 2", xs, got)
	}
}

func TestAccuracyLadder(t *testing.T) {
	// Across many random hard sets, average error must respect
	// ST >= K >= CP and CP ~ exact.
	var errST, errK, errCP, errPR float64
	trials := 50
	for i := 0; i < trials; i++ {
		xs := hardSet(4096, uint64(i)+1)
		ref := bigref.Sum(xs)
		errST += bigref.Err(Standard(xs), ref)
		errK += bigref.Err(Kahan(xs), ref)
		errCP += bigref.Err(Composite(xs), ref)
		errPR += bigref.Err(Prerounded(xs), ref)
	}
	if errST < errK {
		t.Errorf("expected err(ST) >= err(K): %g < %g", errST, errK)
	}
	if errK < errCP {
		t.Errorf("expected err(K) >= err(CP): %g < %g", errK, errCP)
	}
	t.Logf("avg errors: ST=%g K=%g CP=%g PR=%g",
		errST/float64(trials), errK/float64(trials), errCP/float64(trials), errPR/float64(trials))
}

func TestStreamingMatchesOneShot(t *testing.T) {
	xs := hardSet(2000, 7)
	for _, alg := range Algorithms {
		acc := alg.NewAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		var want float64
		switch alg {
		case PairwiseAlg:
			want = Standard(xs) // streaming pairwise degenerates to ST
		default:
			want = alg.Sum(xs)
		}
		if got := acc.Sum(); got != want {
			t.Errorf("%v: streaming %g != one-shot %g", alg, got, want)
		}
		acc.Reset()
		if acc.Sum() != 0 {
			t.Errorf("%v: Reset did not zero the accumulator", alg)
		}
	}
}

func TestFoldMatchesSequential(t *testing.T) {
	xs := hardSet(500, 9)
	// The ST monoid folded left-to-right is exactly the iterative sum.
	if got, want := reduce.Fold[float64](STMonoid{}, xs), Standard(xs); got != want {
		t.Errorf("ST fold %g != Standard %g", got, want)
	}
	// The PR monoid fold equals the streaming accumulator bitwise.
	m := DefaultPRConfig().Monoid()
	if got, want := reduce.Fold[PRState](m, xs), Prerounded(xs); got != want {
		t.Errorf("PR fold %g != streaming %g", got, want)
	}
}

func TestPairwiseBeatsStandardOnLongUniform(t *testing.T) {
	r := fpu.NewRNG(11)
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = r.Float64()
	}
	ref := bigref.Sum(xs)
	eST := bigref.Err(Standard(xs), ref)
	ePW := bigref.Err(Pairwise(xs), ref)
	if ePW > eST && eST > 0 {
		t.Errorf("pairwise error %g worse than standard %g on uniform data", ePW, eST)
	}
}

func TestSortedOrders(t *testing.T) {
	xs := []float64{0x1p53, 1, 1, 1, 1}
	asc := SortedAscending(xs)
	desc := SortedDescending(xs)
	// Ascending-by-magnitude accumulates the unit terms before they meet
	// 2^53 (the conventional-wisdom order for same-sign data): exact.
	if asc != 0x1p53+4 {
		t.Errorf("SortedAscending = %g, want %g", asc, 0x1p53+4)
	}
	// Descending absorbs each unit term into 2^53 one at a time
	// (ties-to-even keeps the even mantissa), losing all four.
	if desc != 0x1p53 {
		t.Errorf("SortedDescending = %g, want %g (absorption)", desc, 0x1p53)
	}
	// Input must be untouched.
	if xs[0] != 0x1p53 || xs[4] != 1 {
		t.Error("sorted sums mutated their input")
	}
}

func TestRegistryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for i, a := range Algorithms {
		if !a.Valid() {
			t.Errorf("%v not valid", a)
		}
		if a.String() == "" || a.FullName() == "" {
			t.Errorf("%v missing names", a)
		}
		if seen[a.String()] {
			t.Errorf("duplicate abbreviation %q", a)
		}
		seen[a.String()] = true
		for _, name := range []string{a.String(), a.FullName()} {
			back, err := ParseAlgorithm(name)
			if err != nil || back != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v", name, back, err)
			}
		}
		if i > 0 && Algorithms[i-1].CostRank() >= a.CostRank() {
			t.Errorf("cost order violated at %v (%d) >= %v (%d)",
				Algorithms[i-1], Algorithms[i-1].CostRank(), a, a.CostRank())
		}
		if want := a == PreroundedAlg || a == BinnedAlg; a.Reproducible() != want {
			t.Errorf("%v.Reproducible() = %v, want %v", a, a.Reproducible(), want)
		}
	}
	if len(Algorithms) != int(numAlgorithms) {
		t.Errorf("Algorithms lists %d of %d registered algorithms", len(Algorithms), numAlgorithms)
	}
	if got := CheapestReproducible(); got != BinnedAlg {
		t.Errorf("CheapestReproducible() = %v, want BN", got)
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm should reject unknown names")
	}
	// Cost ladder of the paper's four algorithms.
	for i := 1; i < len(PaperAlgorithms); i++ {
		if PaperAlgorithms[i-1].CostRank() >= PaperAlgorithms[i].CostRank() {
			t.Errorf("cost ladder violated at %v >= %v", PaperAlgorithms[i-1], PaperAlgorithms[i])
		}
	}
	// Values past the registry keep their out-of-range behaviour: a
	// formatted name, rank n+100, and the package's own panic rather
	// than an index-out-of-range one.
	for _, a := range []Algorithm{numAlgorithms, 255} {
		want := fmt.Sprintf("Algorithm(%d)", uint8(a))
		if a.Valid() || a.Reproducible() {
			t.Errorf("%d: Valid=%v Reproducible=%v, want false", uint8(a), a.Valid(), a.Reproducible())
		}
		if a.String() != want || a.FullName() != want {
			t.Errorf("%d: String %q FullName %q, want %q", uint8(a), a.String(), a.FullName(), want)
		}
		if a.CostRank() != int(a)+100 {
			t.Errorf("%d: CostRank %d, want %d", uint8(a), a.CostRank(), int(a)+100)
		}
		for name, call := range map[string]func(){
			"Sum":            func() { a.Sum([]float64{1}) },
			"NewAccumulator": func() { a.NewAccumulator() },
			"Op":             func() { a.Op() },
			"Dot":            func() { Dot(a, []float64{1}, []float64{2}) },
		} {
			if msg := panicMessage(call); msg != "sum: invalid algorithm "+want {
				t.Errorf("%d: %s panicked with %q", uint8(a), name, msg)
			}
		}
	}
}

// panicMessage runs f and returns what it panicked with, as a string.
func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return ""
}

func TestOpsMatchMonoids(t *testing.T) {
	xs := hardSet(300, 21)
	for _, a := range Algorithms {
		op := a.Op()
		if op.Name() != a.String() && !(a == PairwiseAlg && op.Name() == "PW") {
			t.Errorf("op name %q for %v", op.Name(), a)
		}
		st := op.Leaf(xs[0])
		for _, x := range xs[1:] {
			st = op.Merge(st, op.Leaf(x))
		}
		got := op.Finalize(st)
		ref := bigref.SumFloat64(xs)
		if math.Abs(got-ref) > 1e-6*math.Abs(ref)+1e-9 {
			t.Errorf("%v op fold wildly off: %g vs %g", a, got, ref)
		}
	}
}

func TestKahanMonoidAccuracy(t *testing.T) {
	// The Kahan tree operator must be at least as accurate as plain ST
	// folds on hard sets (statistically).
	var eST, eK float64
	for i := 0; i < 30; i++ {
		xs := hardSet(2048, uint64(100+i))
		ref := bigref.Sum(xs)
		eST += bigref.Err(reduce.Fold[float64](STMonoid{}, xs), ref)
		eK += bigref.Err(reduce.Fold[KState](KahanMonoid{}, xs), ref)
	}
	if eK > eST {
		t.Errorf("Kahan fold error %g exceeds ST fold error %g", eK, eST)
	}
}

func TestNeumaierMonoidExactOnTwoSumCases(t *testing.T) {
	xs := []float64{1, 1e100, 1, -1e100}
	got := reduce.Fold[NState](NeumaierMonoid{}, xs)
	if got != 2 {
		t.Errorf("Neumaier monoid fold = %g, want 2", got)
	}
}

func TestReducePairwiseMatchesPairwiseST(t *testing.T) {
	xs := hardSet(1000, 33)
	got := reduce.Pairwise[float64](STMonoid{}, xs, nil)
	// reduce.Pairwise with ST is a balanced-tree sum; it must agree with
	// a reference balanced reduction within representable differences:
	// here we just require it to be finite and close to the exact sum.
	ref := bigref.SumFloat64(xs)
	if math.Abs(got-ref) > 1e-7*math.Abs(ref)+1e-9 {
		t.Errorf("balanced ST reduce too far off: %g vs %g", got, ref)
	}
	// Scratch reuse must not change the result.
	scratch := make([]float64, len(xs))
	if got2 := reduce.Pairwise[float64](STMonoid{}, xs, scratch); got2 != got {
		t.Errorf("scratch changed result: %g vs %g", got2, got)
	}
}

func TestEmptyAndSingleFold(t *testing.T) {
	if got := reduce.Fold[float64](STMonoid{}, nil); got != 0 {
		t.Errorf("empty fold = %g", got)
	}
	if got := reduce.Pairwise[float64](STMonoid{}, nil, nil); got != 0 {
		t.Errorf("empty pairwise = %g", got)
	}
	if got := reduce.Pairwise[float64](STMonoid{}, []float64{7}, nil); got != 7 {
		t.Errorf("single pairwise = %g", got)
	}
}
