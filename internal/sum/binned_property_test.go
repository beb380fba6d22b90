package sum_test

// Cross-layer property tests for the binned reproducible rung: the same
// multiset of operands must produce bitwise-identical sums through
// every execution surface — permutations, all tree shapes, all worker
// counts, any chunk size — and the selection ladder
// must expose BN as the cheapest reproducible rung.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/binned"
	"repro/internal/fpu"
	"repro/internal/parallel"
	"repro/internal/sum"
	"repro/internal/tree"
)

func binnedPropData(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(120)-60)
	}
	return xs
}

func TestBinnedInvarianceAcrossTreesAndWorkers(t *testing.T) {
	xs := binnedPropData(11, 3001)
	want := math.Float64bits(sum.Binned(xs))

	// Random permutations.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		perm := rng.Perm(len(xs))
		shuf := make([]float64, len(xs))
		for i, p := range perm {
			shuf[i] = xs[p]
		}
		if got := math.Float64bits(sum.Binned(shuf)); got != want {
			t.Fatalf("permutation %d: %x != %x", trial, got, want)
		}
	}

	// Every tree shape, several randomly drawn plans each.
	for _, shape := range []tree.Shape{tree.Balanced, tree.Unbalanced, tree.Random, tree.Blocked, tree.Knomial} {
		r := fpu.NewRNG(uint64(13 + shape))
		for trial := 0; trial < 6; trial++ {
			p := tree.NewPlan(shape, len(xs), r)
			got := math.Float64bits(tree.Reduce(sum.BNMonoid{}, p, xs))
			if got != want {
				t.Fatalf("%v trial %d: %x != %x", shape, trial, got, want)
			}
		}
	}

	// Worker counts x chunk sizes on the parallel engine.
	for _, workers := range []int{1, 2, 4, 7} {
		for _, chunk := range []int{0, 256, 1000} {
			cfg := parallel.Config{Workers: workers, ChunkSize: chunk}
			got := math.Float64bits(parallel.Sum(sum.BinnedAlg, xs, cfg))
			if got != want {
				t.Fatalf("w=%d chunk=%d: %x != %x", workers, chunk, got, want)
			}
		}
	}
}

// adversarialBinnedSets exercises every flush path of the two-level
// deposit kernel: anchor churn (per-group window jumps), multi-window
// mixes, zeros mid-run, denormals, and the scaled top windows around
// the 2^-512 Finalize scaling boundary.
func adversarialBinnedSets() map[string][]float64 {
	rng := rand.New(rand.NewSource(23))
	sets := map[string][]float64{}
	churn := make([]float64, 801)
	for i := range churn {
		e := 0
		if i%2 == 1 {
			e = 300
		}
		churn[i] = (rng.Float64() - 0.5) * math.Ldexp(1, e)
	}
	sets["anchor-churn"] = churn
	three := make([]float64, 900)
	for i := range three {
		three[i] = (rng.Float64() - 0.5) * math.Ldexp(1, (i%3)*64-64)
	}
	sets["three-windows"] = three
	zeros := make([]float64, 700)
	for i := range zeros {
		switch i % 5 {
		case 0:
			zeros[i] = 0
		case 1:
			zeros[i] = math.Copysign(0, -1)
		default:
			zeros[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40))
		}
	}
	sets["zeros-mid-run"] = zeros
	den := make([]float64, 600)
	for i := range den {
		den[i] = math.Ldexp(1+rng.Float64(), -1040-rng.Intn(30))
		if i%2 == 1 {
			den[i] = -den[i]
		}
	}
	sets["denormal"] = den
	top := make([]float64, 500)
	for i := range top {
		e := 980
		if i%2 == 1 {
			e = 900
		}
		top[i] = (rng.Float64() - 0.5) * math.Ldexp(1, e)
	}
	sets["scaled-top-straddle"] = top
	return sets
}

// TestBinnedAdversarialFlushPathsAcrossEngines pins the two-level fast
// path against the reference per-element deposit loop (the pre-PR-7
// oracle) on data that forces every flush path, then drives the same
// multisets through permutations, all five tree shapes, and the
// parallel engine at several worker counts — all must reproduce the
// oracle's Finalize bits exactly.
func TestBinnedAdversarialFlushPathsAcrossEngines(t *testing.T) {
	shapes := []tree.Shape{tree.Balanced, tree.Unbalanced, tree.Random, tree.Blocked, tree.Knomial}
	rng := rand.New(rand.NewSource(24))
	for name, xs := range adversarialBinnedSets() {
		var ref binned.State
		ref.AddSliceRef(xs)
		want := math.Float64bits(ref.Finalize())
		if got := math.Float64bits(sum.Binned(xs)); got != want {
			t.Fatalf("%s: two-level %x != reference oracle %x", name, got, want)
		}
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(len(xs))
			shuf := make([]float64, len(xs))
			for i, p := range perm {
				shuf[i] = xs[p]
			}
			if got := math.Float64bits(sum.Binned(shuf)); got != want {
				t.Fatalf("%s perm %d: %x != %x", name, trial, got, want)
			}
			for _, shape := range shapes {
				p := tree.NewPlan(shape, len(shuf), fpu.NewRNG(uint64(25+trial)+uint64(shape)))
				if got := math.Float64bits(tree.Reduce(sum.BNMonoid{}, p, shuf)); got != want {
					t.Fatalf("%s perm %d %v: %x != %x", name, trial, shape, got, want)
				}
			}
			for _, workers := range []int{1, 2, 4, 7} {
				cfg := parallel.Config{Workers: workers, ChunkSize: 128 + 100*trial}
				if got := math.Float64bits(parallel.Sum(sum.BinnedAlg, shuf, cfg)); got != want {
					t.Fatalf("%s perm %d w=%d: %x != %x", name, trial, workers, got, want)
				}
			}
		}
	}
}

func TestBinnedNonFinitePropagationAcrossEngines(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		nan  bool
		want float64
	}{
		{"posinf", append(binnedPropData(14, 500), inf), false, inf},
		{"neginf", append(binnedPropData(15, 500), -inf), false, -inf},
		{"bothinf", append(binnedPropData(16, 500), inf, -inf), true, 0},
		{"nan", append(binnedPropData(17, 500), math.NaN()), true, 0},
		{"overflow", []float64{math.MaxFloat64, math.Ldexp(1, 1023)}, false, inf},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			got := parallel.Sum(sum.BinnedAlg, c.xs, parallel.Config{Workers: workers})
			serial := sum.Binned(c.xs)
			if c.nan {
				if !math.IsNaN(got) || !math.IsNaN(serial) {
					t.Errorf("%s w=%d: got %g serial %g, want NaN", c.name, workers, got, serial)
				}
				continue
			}
			if got != c.want || serial != c.want {
				t.Errorf("%s w=%d: got %g serial %g, want %g", c.name, workers, got, serial, c.want)
			}
		}
	}
}

func TestBinnedSelectionLadder(t *testing.T) {
	if got := sum.CheapestReproducible(); got != sum.BinnedAlg {
		t.Errorf("CheapestReproducible = %v, want BN", got)
	}
	if !sum.BinnedAlg.Reproducible() || !sum.PreroundedAlg.Reproducible() {
		t.Error("both reproducible rungs must report Reproducible")
	}
	for _, a := range []sum.Algorithm{sum.StandardAlg, sum.KahanAlg, sum.NeumaierAlg, sum.CompositeAlg} {
		if a.Reproducible() {
			t.Errorf("%v must not report Reproducible", a)
		}
	}
	// The ladder is strictly cost-ordered and ends reproducible.
	prev := -1
	for _, a := range sum.SelectionLadder {
		if r := a.CostRank(); r <= prev {
			t.Errorf("SelectionLadder not strictly cost-ordered at %v", a)
		} else {
			prev = r
		}
	}
	last := sum.SelectionLadder[len(sum.SelectionLadder)-1]
	if !last.Reproducible() {
		t.Error("SelectionLadder must end in a reproducible rung")
	}
	// BN sits directly after the plain loops on the cost ladder: the
	// two-level kernel measures under 2x the ST floor and below the
	// Kahan kernel, so the cheapest reproducible rung precedes every
	// compensated one ("reproducible by default").
	if !(sum.PairwiseAlg.CostRank() < sum.BinnedAlg.CostRank() &&
		sum.BinnedAlg.CostRank() < sum.KahanAlg.CostRank() &&
		sum.KahanAlg.CostRank() < sum.CompositeAlg.CostRank() &&
		sum.CompositeAlg.CostRank() < sum.PreroundedAlg.CostRank()) {
		t.Error("cost ladder order violated: want PW < BN < K < CP < PR")
	}
	// The ladder's second rung is the reproducible one.
	if sum.SelectionLadder[1] != sum.BinnedAlg {
		t.Errorf("SelectionLadder[1] = %v, want BN", sum.SelectionLadder[1])
	}
}

func TestBinnedAccumulatorStreaming(t *testing.T) {
	xs := binnedPropData(18, 1234)
	var acc sum.BinnedAcc
	for _, x := range xs {
		acc.Add(x)
	}
	if got, want := acc.Sum(), sum.Binned(xs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("streaming %x != one-shot %x", math.Float64bits(got), math.Float64bits(want))
	}
	// Sum is non-destructive: adding after reading continues the stream.
	mid := acc.Sum()
	acc.Add(math.Ldexp(1, 80))
	if acc.Sum() == mid {
		t.Error("accumulator froze after a mid-stream Sum read")
	}
	acc.Reset()
	if acc.Sum() != 0 {
		t.Error("Reset did not zero the accumulator")
	}
	// The enum round-trips through its text form.
	b, err := sum.BinnedAlg.MarshalText()
	if err != nil || string(b) != "BN" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	parsed, err := sum.ParseAlgorithm("BN")
	if err != nil || parsed != sum.BinnedAlg {
		t.Fatalf("ParseAlgorithm(BN) = %v, %v", parsed, err)
	}
}

func TestBinnedDotReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 800
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
		b[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
	}
	want := math.Float64bits(sum.DotBinned(a, b))
	for trial := 0; trial < 6; trial++ {
		perm := rng.Perm(n)
		pa := make([]float64, n)
		pb := make([]float64, n)
		for i, p := range perm {
			pa[i] = a[p]
			pb[i] = b[p]
		}
		if got := math.Float64bits(sum.DotBinned(pa, pb)); got != want {
			t.Fatalf("permutation %d: %x != %x", trial, got, want)
		}
	}
	if got := math.Float64bits(sum.Dot(sum.BinnedAlg, a, b)); got != want {
		t.Fatal("Dot dispatcher disagrees with DotBinned")
	}
}
