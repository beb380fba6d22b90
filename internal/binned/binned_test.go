package binned

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/superacc"
)

// refRetained computes the exact sum of the retained values r(x) by
// chunking each operand independently (with big headroom via superacc)
// — the value the engine must represent exactly.
func refRetained(xs []float64) float64 {
	var sa superacc.Acc
	for _, x := range xs {
		ef := int(math.Float64bits(x) >> 52 & 0x7ff)
		if ef == 0x7ff {
			sa.Add(x)
			continue
		}
		j := (ef + 51) >> binShift
		if j >= hiBin {
			r := x * (0x1p-512)
			for f := 0; f < Folds; f++ {
				jj := j - f
				big := math.Ldexp(1.5, jj*BinWidth-1074-scaleSH+52)
				c := (big + r) - big
				r -= c
				sa.AddLdexp(c, scaleSH)
			}
			continue
		}
		r := x
		for f := 0; f < Folds; f++ {
			jj := j - f
			big := bigTab[jj+pad]
			c := (big + r) - big
			r -= c
			sa.Add(c)
		}
	}
	return sa.Float64()
}

func randSlice(rng *rand.Rand, n int, scale float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-30) * scale
	}
	return xs
}

func TestSumMatchesRetainedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]float64{
		{},
		{0},
		{1, 2, 3},
		{1e300, -1e300, 1},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{math.MaxFloat64, -math.MaxFloat64, 1e-300},
		randSlice(rng, 1000, 1),
		randSlice(rng, 1000, 1e280),
		randSlice(rng, 1000, 1e-290),
		randSlice(rng, 10000, 1e150),
	}
	for i, xs := range cases {
		got := Sum(xs)
		want := refRetained(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: Sum=%x want %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestAccuracyNearExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		xs := randSlice(rng, 5000, 1)
		got := Sum(xs)
		exact := superacc.Sum(xs)
		// Retained 64 bits per operand: error <= ~n * 2^-65 * max|x|.
		bound := float64(len(xs)) * math.Ldexp(1, -64) * math.Ldexp(1, 30)
		if math.Abs(got-exact) > bound {
			t.Fatalf("trial %d: |%g - %g| > %g", trial, got, exact, bound)
		}
	}
}

func TestAddMatchesAddSliceAllLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := randSlice(rng, 4097, 1e100)
	xs[17] = 1e308  // top-of-range slow path
	xs[99] = -5e307 // hi-bin negative
	xs[512] = 0
	var ref State
	for _, x := range xs {
		ref.Add(x)
	}
	// The reference batch path performs the exact deposits of
	// element-wise Add in the same order: field-for-field equal.
	var rst State
	rst.AddSliceRef(xs)
	if rst.bins != ref.bins {
		t.Fatalf("reference path: bins differ from element-wise Add")
	}
	// The two-level path may decompose the same represented value
	// differently across bins (anchored grids); the contract is the
	// represented value, i.e. the Finalize bits.
	var st State
	st.AddSlice(xs)
	if got, want := st.Finalize(), ref.Finalize(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AddSlice: Finalize %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
	for _, s := range []*State{&st, &rst} {
		if s.Count() != int64(len(xs)) {
			t.Fatalf("count %d != %d", s.Count(), len(xs))
		}
	}
}

func TestPermutationAndSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := randSlice(rng, 2000, 1e200)
	want := math.Float64bits(Sum(xs))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(xs))
		shuf := make([]float64, len(xs))
		for i, p := range perm {
			shuf[i] = xs[p]
		}
		// Random split into 1..8 parts, each summed then merged in
		// random order.
		parts := 1 + rng.Intn(8)
		states := make([]*State, parts)
		for i := range states {
			states[i] = new(State)
		}
		for i, x := range shuf {
			states[i%parts].AddSlice([]float64{x})
		}
		root := states[0]
		for _, o := range states[1:] {
			root.Merge(o)
		}
		if got := math.Float64bits(root.Finalize()); got != want {
			t.Fatalf("trial %d: merged bits %x != %x", trial, got, want)
		}
	}
}

func TestMergedStateEqualsSequentialBitwise(t *testing.T) {
	// Below the renormalization schedule no carry pass runs, so with
	// the reference path (whose chunk decomposition is per-element,
	// independent of batch boundaries) bin totals are plain exact sums
	// of chunk multiples — associative — and a merged state must equal
	// the sequential state field-for-field (bins; pend bookkeeping may
	// differ). The two-level default path re-decomposes against anchor
	// grids that depend on batch boundaries, so for it — as across the
	// schedule boundary, where carry timing differs between the two
	// histories — the invariant is the represented value: Finalize bits
	// must agree.
	rng := rand.New(rand.NewSource(7))
	xs := randSlice(rng, 50000, 1e120)
	var seqRef, seqSt State
	seqRef.AddSliceRef(xs)
	seqSt.AddSlice(xs)
	if got, want := seqSt.Finalize(), seqRef.Finalize(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("two-level Finalize %x != reference %x", math.Float64bits(got), math.Float64bits(want))
	}
	for trial := 0; trial < 10; trial++ {
		cut := 1 + rng.Intn(len(xs)-1)
		var ra, rb State
		ra.AddSliceRef(xs[:cut])
		rb.AddSliceRef(xs[cut:])
		ra.Merge(&rb)
		if ra.bins != seqRef.bins {
			t.Fatalf("trial %d (cut %d): merged reference bins differ from sequential", trial, cut)
		}
		var a, b State
		a.AddSlice(xs[:cut])
		b.AddSlice(xs[cut:])
		a.Merge(&b)
		if got, want := a.Finalize(), seqSt.Finalize(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: merged Finalize %x != sequential %x",
				trial, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// Across the renorm schedule: finalize bits must agree even though
	// carry timing differs.
	big := make([]float64, 0, renormEvery+4096)
	for len(big) < renormEvery+4096 {
		big = append(big, math.Ldexp(rng.Float64()-0.5, rng.Intn(40)))
	}
	var whole State
	whole.AddSlice(big)
	cut := renormEvery - 1000 // second half crosses the schedule mid-merge
	var a, b State
	a.AddSlice(big[:cut])
	b.AddSlice(big[cut:])
	a.Merge(&b)
	if got, want := a.Finalize(), whole.Finalize(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cross-schedule merge: %x != %x", math.Float64bits(got), math.Float64bits(want))
	}
}

func TestRenormCapacityStress(t *testing.T) {
	// Many more deposits than renormEvery, same magnitude, alternating
	// signs plus a drift term: exercises scheduled renorm and carries.
	n := 3 * renormEvery / 2
	xs := make([]float64, 0, 8)
	var st State
	chunk := make([]float64, 4096)
	total := 0
	rng := rand.New(rand.NewSource(5))
	for total < n {
		for i := range chunk {
			chunk[i] = math.Ldexp(rng.Float64()-0.25, 40)
		}
		st.AddSlice(chunk)
		total += len(chunk)
	}
	_ = xs
	got := st.Finalize()
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("stress sum is non-finite: %g", got)
	}
	if st.Count() != int64(total) {
		t.Fatalf("count %d != %d", st.Count(), total)
	}
}

func TestSpecials(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, inf, 2}, inf},
		{[]float64{1, -inf, 2}, -inf},
		{[]float64{inf, -inf}, nan},
		{[]float64{nan, 1}, nan},
		{[]float64{inf, nan, -inf}, nan},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, inf},    // overflowed finite sum
		{[]float64{-math.MaxFloat64, -math.MaxFloat64}, -inf}, // negative overflow
		{[]float64{math.MaxFloat64, -math.MaxFloat64, 2.5}, 2.5},
	}
	for i, c := range cases {
		got := Sum(c.xs)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Fatalf("case %d: got %g want NaN", i, got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("case %d: got %g want %g", i, got, c.want)
		}
	}
}

func TestAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := randSlice(rng, 8192, 1)
	var st State
	allocs := testing.AllocsPerRun(10, func() {
		st.Reset()
		st.AddSlice(xs)
		_ = st.Finalize()
	})
	if allocs != 0 {
		t.Fatalf("AddSlice+Finalize allocates %v per run, want 0", allocs)
	}
}
