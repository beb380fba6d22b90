package parallel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/reduce"
	"repro/internal/sum"
	"repro/internal/superacc"
)

// adversarialSets spans the hostile corners of the generator's parameter
// space: benign same-sign data, exact cancellation, near-total
// cancellation at wide dynamic range, odd/non-chunk-aligned lengths, and
// signed zeros (an odd-length all -0 set and a mixed ±0 set).
func adversarialSets() map[string][]float64 {
	negZero := math.Copysign(0, -1)
	allNegZero := make([]float64, 777)
	mixedZero := make([]float64, 1001)
	for i := range allNegZero {
		allNegZero[i] = negZero
	}
	for i := range mixedZero {
		if i%3 != 0 {
			mixedZero[i] = negZero
		}
	}
	sets := map[string][]float64{
		"benign":      gen.Spec{N: 5000, Cond: 1, DynRange: 8, Seed: 1}.Generate(),
		"sumzero":     gen.Spec{N: 4096, Cond: math.Inf(1), DynRange: 32, Seed: 2}.Generate(),
		"illcond":     gen.Spec{N: 4097, Cond: 1e8, DynRange: 24, Seed: 3}.Generate(),
		"widerange":   gen.Spec{N: 2000, Cond: 1e4, DynRange: 40, Seed: 4}.Generate(),
		"nbodyforces": gen.NBodyForces(3000, 5),
		"tiny":        {1.0, 0x1p-40},
		"single":      {3.25},
		"negzero":     allNegZero,
		"mixedzero":   mixedZero,
	}
	return sets
}

func bits(v float64) uint64 { return math.Float64bits(v) }

func TestSumBitwiseAcrossWorkerCounts(t *testing.T) {
	// The acceptance property of the engine: for every registered
	// algorithm, every worker count 1..8, and every adversarial input,
	// the parallel result is bitwise-identical to the single-threaded
	// execution of the same plan.
	cfg := Config{ChunkSize: 256} // force many chunks even on small sets
	for name, xs := range adversarialSets() {
		for _, alg := range sum.Algorithms {
			cfg.Workers = 1
			ref := SeqSum(alg, xs, Config{ChunkSize: cfg.ChunkSize})
			for w := 1; w <= 8; w++ {
				cfg.Workers = w
				if got := Sum(alg, xs, cfg); bits(got) != bits(ref) {
					t.Errorf("%s/%v: %d workers gave %x, sequential plan gave %x",
						name, alg, w, bits(got), bits(ref))
				}
			}
		}
	}
}

func TestSumMatchesSequentialMonoidFold(t *testing.T) {
	// Sum must equal folding the same chunks through the algorithm's
	// monoid — the contract that lets SeqReduce serve as the engine's
	// oracle — with one exception: ST and PW chunks fold with kernel.ST,
	// which starts from +0 like sum.Standard, where the ST monoid's fold
	// starts from xs[0]. The two differ only when every operand is -0
	// (+0 against -0), so on all-zero sets the ST/PW oracle is +0.
	cfg := Config{ChunkSize: 512, Workers: 4}
	for name, xs := range adversarialSets() {
		check := func(alg sum.Algorithm, ref float64) {
			if got := Sum(alg, xs, cfg); bits(got) != bits(ref) {
				t.Errorf("%s/%v: engine %x, monoid fold %x", name, alg, bits(got), bits(ref))
			}
		}
		stRef := SeqReduce(sum.STMonoid{}, xs, cfg)
		if allZero(xs) {
			stRef = 0
		}
		check(sum.StandardAlg, stRef)
		check(sum.PairwiseAlg, stRef)
		check(sum.BinnedAlg, SeqReduce(sum.BNMonoid{}, xs, cfg))
		check(sum.KahanAlg, SeqReduce(sum.KahanMonoid{}, xs, cfg))
		check(sum.NeumaierAlg, SeqReduce(sum.NeumaierMonoid{}, xs, cfg))
		check(sum.CompositeAlg, SeqReduce(sum.CPMonoid{}, xs, cfg))
		check(sum.PreroundedAlg, SeqReduce(sum.DefaultPRConfig().Monoid(), xs, cfg))
	}
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

func TestPRInvariantToChunkPlan(t *testing.T) {
	// Only the prerounded operator promises invariance to the plan
	// itself (its merge is exactly associative and commutative): any
	// chunk size must give the same bits as the one-shot sum.
	for name, xs := range adversarialSets() {
		ref := sum.Prerounded(xs)
		for _, cs := range []int{1, 3, 100, 1 << 15} {
			got := Sum(sum.PreroundedAlg, xs, Config{ChunkSize: cs, Workers: 3})
			if bits(got) != bits(ref) {
				t.Errorf("%s: PR with chunk %d gave %x, one-shot %x", name, cs, bits(got), bits(ref))
			}
		}
	}
}

func TestExactSumShardedOracle(t *testing.T) {
	// The BN engine is the one exact engine: chunk states merged exactly
	// must reproduce the superaccumulator oracle bit for bit under every
	// plan and worker count.
	sets := adversarialSets()
	sets["subnormals"] = []float64{0x1p-1074, 0x1p-1070, -0x1p-1074, 0x1p-1022}
	sets["hugecancel"] = []float64{0x1p900, -0x1p900, 0x1p-900, 1, -1, 0x1.5p-901}
	sets["zeroleaves"] = []float64{0, 3, math.Copysign(0, -1)} // empty states merged
	for name, xs := range sets {
		ref := superacc.Sum(xs)
		for _, cs := range []int{1, 7, 1000} {
			for w := 1; w <= 8; w++ {
				got := Sum(sum.BinnedAlg, xs, Config{ChunkSize: cs, Workers: w})
				if bits(got) != bits(ref) {
					t.Errorf("%s: BN (chunk %d, %d workers) %x, oracle %x",
						name, cs, w, bits(got), bits(ref))
				}
			}
		}
	}
}

func TestReduceEmptyAndEdgeInputs(t *testing.T) {
	for _, alg := range sum.Algorithms {
		if got := Sum(alg, nil, Config{}); got != 0 {
			t.Errorf("%v: empty sum = %g", alg, got)
		}
		if got := Sum(alg, []float64{42.5}, Config{Workers: 8}); got != 42.5 {
			t.Errorf("%v: singleton sum = %g", alg, got)
		}
	}
	if got := Sum(sum.BinnedAlg, nil, Config{ChunkSize: 1, Workers: 8}); bits(got) != 0 {
		t.Errorf("empty exact sum = %g", got)
	}
	if got := Reduce(sum.STMonoid{}, nil, Config{}); got != 0 {
		t.Errorf("empty Reduce = %g", got)
	}
}

func TestMergeTreeFixedPairing(t *testing.T) {
	// The tree pairing must be a pure function of the leaf count:
	// adjacent pairs level by level, odd tail carried up unmerged.
	leaves := []string{"a", "b", "c", "d", "e"}
	got := MergeTree(leaves, func(a, b string) string { return "(" + a + " " + b + ")" })
	if want := "(((a b) (c d)) e)"; got != want {
		t.Errorf("pairing = %s, want %s", got, want)
	}
	if one := MergeTree([]string{"x"}, func(a, b string) string { return a + b }); one != "x" {
		t.Errorf("single-leaf tree = %s", one)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty MergeTree did not panic")
		}
	}()
	MergeTree(nil, func(a, b string) string { return a + b })
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		const n = 257
		counts := make([]int32, n)
		For(n, workers, func(i int) { counts[i]++ })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	For(0, 4, func(i int) { t.Error("For(0) ran an iteration") })
}

func TestNumChunks(t *testing.T) {
	cfg := Config{ChunkSize: 100}
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {99, 1}, {100, 1}, {101, 2}, {1000, 10}, {1001, 11},
	} {
		if got := cfg.NumChunks(tc.n); got != tc.want {
			t.Errorf("NumChunks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestReduceGenericAcrossWorkers(t *testing.T) {
	// Reduce/SeqReduce (the generic monoid entry points) obey the same
	// worker-count invariance as the algorithm dispatcher.
	xs := gen.SumZeroSeries(3000, 32, 11)
	run := func(m interface{}, w int) float64 {
		switch mm := m.(type) {
		case reduce.Monoid[float64]:
			return Reduce(mm, xs, Config{ChunkSize: 128, Workers: w})
		case reduce.Monoid[sum.KState]:
			return Reduce(mm, xs, Config{ChunkSize: 128, Workers: w})
		}
		panic("unhandled monoid")
	}
	for _, m := range []interface{}{reduce.Monoid[float64](sum.STMonoid{}), reduce.Monoid[sum.KState](sum.KahanMonoid{})} {
		ref := run(m, 1)
		for w := 2; w <= 8; w++ {
			if got := run(m, w); bits(got) != bits(ref) {
				t.Errorf("%T: workers=%d gave %x, workers=1 gave %x", m, w, bits(got), bits(ref))
			}
		}
	}
}

func TestWorkerCountDoesNotChangeChunkPlan(t *testing.T) {
	// Sanity on the plan itself: chunk results land at fixed indices, so
	// a permutation-sensitive merge (string concat) still produces the
	// same output at any worker count.
	const n = 1001
	cfg := Config{ChunkSize: 37}
	build := func(w int) string {
		cfg.Workers = w
		s, ok := MapReduce(n, cfg,
			func(lo, hi int) string { return fmt.Sprintf("[%d:%d]", lo, hi) },
			func(a, b string) string { return a + b })
		if !ok {
			t.Fatal("MapReduce returned !ok")
		}
		return s
	}
	ref := build(1)
	for w := 2; w <= 8; w++ {
		if got := build(w); got != ref {
			t.Fatalf("workers=%d plan %q != workers=1 plan %q", w, got, ref)
		}
	}
}

func TestEngineEdgeCases(t *testing.T) {
	// Workers far beyond n, ChunkSize 1 (every element its own chunk)
	// and a short trailing chunk must all agree with the sequential plan
	// bit for bit.
	cases := []struct {
		name string
		xs   []float64
		cfg  Config
	}{
		{"workers>n", []float64{1, 0x1p-40, -1}, Config{Workers: 64, ChunkSize: 2}},
		{"chunksize=1", gen.Spec{N: 37, Cond: 1e4, DynRange: 10, Seed: 5}.Generate(), Config{Workers: 4, ChunkSize: 1}},
		{"short-tail", gen.Spec{N: 1001, Cond: 1e4, DynRange: 10, Seed: 6}.Generate(), Config{Workers: 4, ChunkSize: 100}},
	}
	for _, tc := range cases {
		for _, alg := range sum.Algorithms {
			ref := SeqSum(alg, tc.xs, tc.cfg)
			if got := Sum(alg, tc.xs, tc.cfg); bits(got) != bits(ref) {
				t.Errorf("%s/%v: parallel %x, sequential %x", tc.name, alg, bits(got), bits(ref))
			}
		}
	}
}

func TestSumNonFinitePropagation(t *testing.T) {
	// Poisoned inputs must come out non-finite from the engine for the
	// IEEE-propagating algorithms — the same poison semantics
	// selector.Profile promises (non-finite in, flagged out).
	poisoned := [][]float64{
		{1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10},
		{1, math.Inf(1), 2, 3, 4, 5, 6, 7, 8, 9},
		{math.Inf(1), math.Inf(-1), 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for i, xs := range poisoned {
		for _, alg := range []sum.Algorithm{sum.StandardAlg, sum.PairwiseAlg, sum.KahanAlg, sum.NeumaierAlg} {
			got := Sum(alg, xs, Config{ChunkSize: 3, Workers: 2})
			if !math.IsNaN(got) && !math.IsInf(got, 0) {
				t.Errorf("set %d/%v: finite %g from poisoned input", i, alg, got)
			}
		}
	}
}
