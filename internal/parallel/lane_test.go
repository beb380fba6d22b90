package parallel

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/sum"
)

// laneAlgs are the algorithms with hand-specialized lane kernels.
var laneAlgs = []sum.Algorithm{sum.StandardAlg, sum.PairwiseAlg, sum.KahanAlg, sum.NeumaierAlg}

func TestLaneWidthBitwiseAcrossWorkerCounts(t *testing.T) {
	// The lane-kernel extension of the engine's acceptance property: for
	// every lane width, the parallel result is bitwise-identical to the
	// single-goroutine execution of the same (ChunkSize, LaneWidth) plan
	// at every worker count.
	for name, xs := range adversarialSets() {
		for _, alg := range sum.Algorithms {
			for _, lw := range kernel.LaneWidths {
				cfg := Config{ChunkSize: 256, LaneWidth: lw}
				ref := SeqSum(alg, xs, cfg)
				for w := 1; w <= 8; w++ {
					cfg.Workers = w
					if got := Sum(alg, xs, cfg); bits(got) != bits(ref) {
						t.Errorf("%s/%v/lanes=%d: %d workers gave %x, sequential plan gave %x",
							name, alg, lw, w, bits(got), bits(ref))
					}
				}
			}
		}
	}
}

func TestLaneWidthIsPartOfThePlan(t *testing.T) {
	// Same bits run-to-run for a fixed width; a poisoned-free check that
	// widths are deterministic plans rather than scheduling accidents.
	xs := gen.Spec{N: 4097, Cond: 1e8, DynRange: 24, Seed: 9}.Generate()
	for _, alg := range laneAlgs {
		for _, lw := range kernel.LaneWidths {
			cfg := Config{ChunkSize: 300, LaneWidth: lw, Workers: 4}
			a, b := Sum(alg, xs, cfg), Sum(alg, xs, cfg)
			if bits(a) != bits(b) {
				t.Errorf("%v/lanes=%d: repeated runs disagree: %x vs %x", alg, lw, bits(a), bits(b))
			}
		}
	}
	// Width 1 (and 0, its default spelling) must reproduce the legacy
	// single-accumulator plan bits.
	for _, alg := range sum.Algorithms {
		legacy := Sum(alg, xs, Config{ChunkSize: 300, Workers: 3})
		for _, lw := range []int{0, 1} {
			if got := Sum(alg, xs, Config{ChunkSize: 300, Workers: 3, LaneWidth: lw}); bits(got) != bits(legacy) {
				t.Errorf("%v: LaneWidth=%d gave %x, legacy plan %x", alg, lw, bits(got), bits(legacy))
			}
		}
	}
}

func TestLaneWidthIgnoredByPlanInvariantAlgorithms(t *testing.T) {
	// CP has no lane form (LaneWidth is documented as ignored), and PR
	// and BN are invariant to any plan; all must give the legacy bits at
	// any width.
	xs := gen.Spec{N: 2000, Cond: 1e4, DynRange: 40, Seed: 4}.Generate()
	for _, alg := range []sum.Algorithm{sum.CompositeAlg, sum.PreroundedAlg, sum.BinnedAlg} {
		ref := Sum(alg, xs, Config{ChunkSize: 256, Workers: 2})
		for _, lw := range []int{2, 4, 8} {
			if got := Sum(alg, xs, Config{ChunkSize: 256, Workers: 2, LaneWidth: lw}); bits(got) != bits(ref) {
				t.Errorf("%v: LaneWidth=%d changed bits: %x vs %x", alg, lw, bits(got), bits(ref))
			}
		}
	}
}

func TestInvalidLaneWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sum with LaneWidth=3 did not panic")
		}
	}()
	Sum(sum.StandardAlg, []float64{1, 2, 3}, Config{LaneWidth: 3})
}

func TestEngineEdgeCases(t *testing.T) {
	// n = 0 with every lane width.
	for _, lw := range kernel.LaneWidths {
		for _, alg := range sum.Algorithms {
			if got := Sum(alg, nil, Config{LaneWidth: lw}); got != 0 {
				t.Errorf("%v/lanes=%d: empty sum = %g", alg, lw, got)
			}
		}
	}
	// Workers far beyond n, ChunkSize 1 (every element its own chunk),
	// a short trailing chunk, and LaneWidth > n must all agree with the
	// sequential plan bit for bit.
	cases := []struct {
		name string
		xs   []float64
		cfg  Config
	}{
		{"workers>n", []float64{1, 0x1p-40, -1}, Config{Workers: 64, ChunkSize: 2}},
		{"chunksize=1", gen.Spec{N: 37, Cond: 1e4, DynRange: 10, Seed: 5}.Generate(), Config{Workers: 4, ChunkSize: 1}},
		{"short-tail", gen.Spec{N: 1001, Cond: 1e4, DynRange: 10, Seed: 6}.Generate(), Config{Workers: 4, ChunkSize: 100}},
		{"lanes>n", []float64{1, 0x1p-40, -1}, Config{Workers: 2, ChunkSize: 8, LaneWidth: 8}},
		{"lanes>chunk", gen.Spec{N: 100, Cond: 1e4, DynRange: 10, Seed: 7}.Generate(), Config{Workers: 3, ChunkSize: 3, LaneWidth: 8}},
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

func TestLaneKernelNonFinitePropagation(t *testing.T) {
	// Poisoned inputs must come out non-finite from the engine at every
	// lane width for the IEEE-propagating algorithms — the same poison
	// semantics selector.Profile promises (non-finite in, flagged out).
	poisoned := [][]float64{
		{1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10},
		{1, math.Inf(1), 2, 3, 4, 5, 6, 7, 8, 9},
		{math.Inf(1), math.Inf(-1), 1, 2, 3, 4, 5, 6, 7, 8},
	}
	for i, xs := range poisoned {
		for _, alg := range laneAlgs {
			for _, lw := range kernel.LaneWidths {
				got := Sum(alg, xs, Config{ChunkSize: 3, Workers: 2, LaneWidth: lw})
				if !math.IsNaN(got) && !math.IsInf(got, 0) {
					t.Errorf("set %d/%v/lanes=%d: finite %g from poisoned input", i, alg, lw, got)
				}
			}
		}
	}
}
