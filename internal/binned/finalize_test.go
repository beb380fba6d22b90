package binned

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/superacc"
)

// finalizeOracle rounds st's represented value with a superaccumulator
// pass over every bin, the scaled bins at their true weight: an
// implementation of Finalize that shares none of its limb arithmetic.
func finalizeOracle(st *State) float64 {
	if st.nan || (st.posInf > 0 && st.negInf > 0) {
		return math.NaN()
	}
	if st.posInf > 0 {
		return math.Inf(1)
	}
	if st.negInf > 0 {
		return math.Inf(-1)
	}
	var sa superacc.Acc
	for s := 0; s < hiBin+pad; s++ {
		sa.Add(st.bins[s])
	}
	for s := hiBin + pad; s < numSlots; s++ {
		sa.AddLdexp(st.bins[s], scaleSH)
	}
	return sa.Float64()
}

// setQuanta stores m quanta in bin j, at the bin's stored scale, and
// widens the live window over the bin.
func (st *State) setQuanta(j int, m int64) {
	q := j*BinWidth - 1074
	if j >= hiBin {
		q -= scaleSH
	}
	st.bins[j+pad] = math.Ldexp(float64(m), q)
	st.widen(uint(j+pad), uint(j+pad+1))
}

// randomWindowState fills a random window of bins with random quantum
// counts, |m_j| < 2^53: full-width and short counts, zero bins inside
// the window, adjacent bins that cancel to a few quanta, and windows
// reaching the top bin and bin 0.
func randomWindowState(rng *rand.Rand) State {
	var st State
	widths := []int{1, 2, 3, 4, 6, 8, numBins}
	w := widths[rng.Intn(len(widths))]
	lo := rng.Intn(numBins - w + 1)
	cancel := rng.Intn(3) == 0
	var above int64
	for j := lo + w - 1; j >= lo; j-- {
		var m int64
		switch {
		case rng.Intn(5) == 0:
			m = 0
		case above != 0:
			// Undo the bin above, up to a few quanta.
			m = -above<<BinWidth + rng.Int63n(9) - 4
		default:
			m = rng.Int63n(1 << uint(1+rng.Intn(53)))
			if rng.Intn(2) == 0 {
				m = -m
			}
		}
		// A short count may be cancelled by the bin below.
		above = 0
		if cancel && m != 0 && m > -1<<20 && m < 1<<20 && rng.Intn(2) == 0 {
			above = m
		}
		st.setQuanta(j, m)
	}
	return st
}

// TestBinnedFinalizeWindowMatchesOracle pins the window rounding
// against the superaccumulator pass on random bin states: every window
// width, position and sign mix, with cancelling neighbours.
func TestBinnedFinalizeWindowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		st := randomWindowState(rng)
		got, want := st.Finalize(), finalizeOracle(&st)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("state %d: Finalize %x, oracle %x (bins %v)",
				i, math.Float64bits(got), math.Float64bits(want), st.bins)
		}
	}
}

// encodeOperands is the fuzz input layout: a split byte, then each
// operand as 8 little-endian bytes.
func encodeOperands(split byte, xs ...float64) []byte {
	b := []byte{split}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// finalizeSeeds are the fuzz seeds: a round-to-even tie, a tie broken
// by a sticky bit, and a non-tie with the rounding bit at every bin
// boundary; subnormal-only sums; the scaled bins and overflow to ±Inf;
// massive cancellation; and signed zeros.
func finalizeSeeds() [][]byte {
	var seeds [][]byte
	for j := 1; j < hiBin; j++ {
		// Half an ulp of a at the lowest bit of bin j, then at the top
		// bit of bin j-1. a's exponent stays finite for j < hiBin.
		for _, half := range []int{j*BinWidth - 1074, j*BinWidth - 1075} {
			u := math.Ldexp(1, half+1)
			odd := (1<<52 + 1) * u
			even := (1<<52 + 2) * u
			h := u / 2
			seeds = append(seeds,
				encodeOperands(1, odd, h),
				encodeOperands(1, even, h),
				encodeOperands(1, -odd, -h),
				encodeOperands(2, odd, h, math.Ldexp(1, half-30)),
				encodeOperands(2, even, -h, -math.Ldexp(1, half-30)),
				encodeOperands(1, even, h/2))
		}
	}
	maxf := math.MaxFloat64
	sub := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	seeds = append(seeds,
		// Subnormal-only sums, including a carry into the normal range.
		encodeOperands(1, sub, 3*sub, -0x1p-1070, 0x1p-1060),
		encodeOperands(2, 0x0.fffffffffffffp-1022, sub),
		encodeOperands(0, 0x1p-1023, 0x1p-1023, -sub),
		encodeOperands(1, -sub, -sub, -sub),
		// Scaled bins and overflow to ±Inf.
		encodeOperands(1, maxf, 0x1p970),
		encodeOperands(1, maxf, 0x1p969),
		encodeOperands(1, maxf, 0x1p970, -0x1p918),
		encodeOperands(1, maxf, maxf, -maxf),
		encodeOperands(1, -maxf, -maxf),
		encodeOperands(2, 0x1p1023, 0x1p1023, -0x1p1023, 0x1p974),
		encodeOperands(3, 1e308, 1e308, 1e308, -1e308, -1e308, -1e308, 1),
		// Massive cancellation, down to the subnormal grid.
		encodeOperands(1, 1e300, 1, -1e300),
		encodeOperands(2, maxf, sub, -maxf),
		encodeOperands(2, 0x1p600, -0x1p600, 0x1p-1000, -0x1.8p-1001),
		encodeOperands(3, 0x1.fffffffffffffp100, -0x1p101, 0x1p48, 0x1p-900),
		// Signed zeros and exact zero sums.
		encodeOperands(0),
		encodeOperands(0, 0),
		encodeOperands(0, negZero),
		encodeOperands(1, negZero, negZero),
		encodeOperands(1, 0, negZero, 1, -1),
		encodeOperands(1, -sub, sub),
		// Non-finite tallies.
		encodeOperands(1, math.Inf(1), 1, math.Inf(-1)),
		encodeOperands(1, math.NaN(), 1),
		encodeOperands(2, maxf, maxf, math.Inf(-1)))
	return seeds
}

// checkFinalize is the fuzz property: the two-level fold, the
// reference fold split at an arbitrary cut and merged, and the negated
// operands all finalize to the correctly rounded sum that superacc.Sum
// computes from the finite operands, with IEEE results for NaN and ±Inf,
// and every state they build keeps its bins inside its live window.
func checkFinalize(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	xs := make([]float64, (len(data)-1)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
	}
	var finite []float64
	var nan, pos, neg bool
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			finite = append(finite, x)
		}
	}
	want := superacc.Sum(finite)
	switch {
	case nan || (pos && neg):
		want = math.NaN()
	case pos:
		want = math.Inf(1)
	case neg:
		want = math.Inf(-1)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}

	var st State
	st.AddSlice(xs)
	checkWindow(t, "AddSlice", &st)
	if got := st.Finalize(); !same(got, want) {
		t.Fatalf("Finalize %x (%v), superacc %x (%v)", math.Float64bits(got), got, math.Float64bits(want), want)
	}
	cut := int(data[0]) % (len(xs) + 1)
	var a, b State
	a.AddSliceRef(xs[:cut])
	for _, x := range xs[cut:] {
		b.Add(x)
	}
	checkWindow(t, "AddSliceRef", &a)
	checkWindow(t, "Add", &b)
	a.Merge(&b)
	checkWindow(t, "Merge", &a)
	if got := a.Finalize(); !same(got, want) {
		t.Fatalf("merged at %d: Finalize %x, superacc %x", cut, math.Float64bits(got), math.Float64bits(want))
	}
	negs := make([]float64, len(xs))
	for i, x := range xs {
		negs[i] = -x
	}
	var n State
	n.AddSlice(negs)
	checkWindow(t, "negated AddSlice", &n)
	if want != 0 && !math.IsNaN(want) {
		want = -want
	}
	if got := n.Finalize(); !same(got, want) {
		t.Fatalf("negated: Finalize %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}
}

// FuzzBinnedFinalize differentially fuzzes Finalize against
// superacc.Sum. The seeds come from finalizeSeeds and the checked-in
// files under testdata/fuzz/FuzzBinnedFinalize; plain go test replays
// them all.
func FuzzBinnedFinalize(f *testing.F) {
	for _, s := range finalizeSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkFinalize)
}
