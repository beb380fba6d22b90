package binned

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/superacc"
)

// Property tests for the two-level deposit path: exactness of the
// engine (the theorem the whole scheme rests on), the level-0 run
// bound R at its boundaries, and every flush path pinned bitwise
// against the reference deposit loop.

// pinAllPaths runs xs through the reference loop and the two-level
// path and requires identical Finalize bits (and counts).
func pinAllPaths(t *testing.T, name string, xs []float64) {
	t.Helper()
	var ref State
	ref.AddSliceRef(xs)
	wantBits := math.Float64bits(ref.Finalize())
	var st State
	st.AddSlice(xs)
	if got := math.Float64bits(st.Finalize()); got != wantBits {
		t.Fatalf("%s: AddSlice Finalize %x != reference %x", name, got, wantBits)
	}
	if st.Count() != ref.Count() {
		t.Fatalf("%s: AddSlice count %d != %d", name, st.Count(), ref.Count())
	}
}

// TestDepositExactness verifies the exactness theorem directly: the
// binned engine's Finalize equals the exact superaccumulator's
// correctly rounded sum, bitwise, on arbitrary finite data across the
// full exponent range (denormals through the scaled top windows).
func TestDepositExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(2000)
		xs := make([]float64, n)
		for i := range xs {
			m := 1 + rng.Float64()
			if rng.Intn(2) == 0 {
				m = -m
			}
			e := rng.Intn(600) - 300
			switch trial % 5 {
			case 1:
				e = rng.Intn(40) - 20
			case 2:
				e = -1000 - rng.Intn(70) // denormal range
			case 3:
				e = 900 + rng.Intn(120) // huge, incl. the scaled path
			case 4:
				e = 0
			}
			xs[i] = math.Ldexp(m, e)
			if math.IsInf(xs[i], 0) {
				xs[i] = math.MaxFloat64
			}
		}
		got := math.Float64bits(Sum(xs))
		want := math.Float64bits(superacc.Sum(xs))
		if got != want {
			t.Fatalf("trial %d n=%d: binned %x != superacc %x", trial, n, got, want)
		}
	}
}

// TestThirdFoldIsExact verifies the linchpin of the exactness theorem:
// the third Dekker fold never rounds — after two folds the residual is
// already an exact multiple of q_{s-2} (the operand's ulp is at least
// 2^12 q_{s-2}), so c2 == r exactly.
func TestThirdFoldIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 200000; trial++ {
		m := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		x := math.Ldexp(m, rng.Intn(2040)-1070)
		if x == 0 || math.IsInf(x, 0) {
			continue
		}
		ef := int(math.Float64bits(x) >> 52 & 0x7ff)
		if ef >= hiEF {
			continue
		}
		s := uint(ef+51) >> binShift
		b0 := bigTab[s+pad]
		c0 := (b0 + x) - b0
		r := x - c0
		b1 := bigTab[s+pad-1]
		c1 := (b1 + r) - b1
		r -= c1
		b2 := bigTab[s+pad-2]
		if c2 := (b2 + r) - b2; c2 != r {
			t.Fatalf("x=%x: third fold rounds: c2=%x r=%x",
				math.Float64bits(x), math.Float64bits(c2), math.Float64bits(r))
		}
	}
}

// TestRunLengthBoundary drives same-window runs of length R-1, R, and
// R+1 (R = renormEvery, the level-0 run bound) at worst-case
// magnitudes — full mantissas at the window's top exponent, same sign,
// so the h grade reaches its proven 2^52-quanta capacity — plus a
// mixed-sign variant, and pins all paths against the reference and
// the exact superaccumulator.
func TestRunLengthBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("R-length runs")
	}
	const R = renormEvery
	mk := func(n int, mixed bool) []float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			// Window 33 tops out at unbiased exponent 13.
			m := 1 + rng.Float64()
			if mixed && rng.Intn(4) == 0 {
				m = -m
			}
			xs[i] = math.Ldexp(m, 13)
		}
		return xs
	}
	for _, n := range []int{R - 1, R, R + 1} {
		for _, mixed := range []bool{false, true} {
			xs := mk(n, mixed)
			var st State
			st.AddSlice(xs)
			got := math.Float64bits(st.Finalize())
			if want := math.Float64bits(superacc.Sum(xs)); got != want {
				t.Fatalf("n=R%+d mixed=%v: two-level %x != superacc %x", n-R, mixed, got, want)
			}
			var ref State
			ref.AddSliceRef(xs)
			if want := math.Float64bits(ref.Finalize()); got != want {
				t.Fatalf("n=R%+d mixed=%v: two-level %x != reference %x", n-R, mixed, got, want)
			}
		}
	}
}

// TestResidualGradeCapacity stresses the u grade: an anchor pinned at
// window 33 by a leading group, then a full run of window-32 elements
// whose three-fold splits against window-33 grids leave nonzero
// sub-q_{A-2} residuals on every deposit.
func TestResidualGradeCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("R-length runs")
	}
	rng := rand.New(rand.NewSource(77))
	xs := make([]float64, renormEvery)
	for i := range xs {
		e := -20 - rng.Intn(30) // window 32: unbiased exponents -50..-19
		if i < groupW {
			e = 0 // anchor group in window 33
		}
		m := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		xs[i] = math.Ldexp(m, e)
	}
	var st State
	st.AddSlice(xs)
	got := math.Float64bits(st.Finalize())
	if want := math.Float64bits(superacc.Sum(xs)); got != want {
		t.Fatalf("residual capacity: two-level %x != superacc %x", got, want)
	}
}

// TestFlushPathsAdversarial pins every flush/fallback path of the
// two-level driver against the reference loop: anchor churn between
// distant windows, three-window groups that can never anchor, zeros
// and negative zeros interleaved mid-run, denormals, the scaled
// 2^-512-domain top windows, and window-boundary straddles.
func TestFlushPathsAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mant := func() float64 {
		m := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		return m
	}
	churn := make([]float64, 4096)
	for i := range churn {
		e := 0
		if (i/4)%2 == 1 {
			e = 300 // re-anchor every group
		}
		churn[i] = math.Ldexp(mant(), e)
	}
	wide := make([]float64, 4096)
	for i := range wide {
		wide[i] = math.Ldexp(mant(), (i%3)*64) // 3 windows per group: direct fallback
	}
	zeros := make([]float64, 4096)
	for i := range zeros {
		switch i % 3 {
		case 0:
			zeros[i] = math.Ldexp(mant(), 40)
		case 1:
			zeros[i] = 0
		default:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	denorm := make([]float64, 4096)
	for i := range denorm {
		denorm[i] = math.Ldexp(mant(), -1040-rng.Intn(35))
	}
	top := make([]float64, 4096)
	for i := range top {
		e := 980 + rng.Intn(44) // bins 64/65: scaled slow path
		if i%5 == 0 {
			e = 900 // straddles back below hiEF
		}
		top[i] = math.Ldexp(mant(), e)
	}
	boundary := make([]float64, 4096)
	for i := range boundary {
		// Alternate the two sides of the window-33/34 boundary.
		boundary[i] = math.Ldexp(mant(), 13+i%2)
	}
	cases := map[string][]float64{
		"anchor-churn":    churn,
		"three-windows":   wide,
		"zeros-mid-run":   zeros,
		"denormals":       denorm,
		"scaled-top":      top,
		"window-boundary": boundary,
	}
	for name, xs := range cases {
		pinAllPaths(t, name, xs)
		// And a permutation of each, which must not change the bits.
		perm := rng.Perm(len(xs))
		shuf := make([]float64, len(xs))
		for i, p := range perm {
			shuf[i] = xs[p]
		}
		pinAllPaths(t, name+"-permuted", shuf)
	}
}

// TestPoisonMidRun injects NaN / Inf inside an eligible stream (the
// group kernel must stop, route the poison through the slow path, and
// resume) and checks IEEE semantics match the reference loop.
func TestPoisonMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := func() []float64 {
		xs := make([]float64, 40000)
		for i := range xs {
			m := 1 + rng.Float64()
			if rng.Intn(2) == 0 {
				m = -m
			}
			xs[i] = math.Ldexp(m, rng.Intn(17))
		}
		return xs
	}
	t.Run("nan", func(t *testing.T) {
		xs := base()
		xs[len(xs)/2] = math.NaN()
		var st, ref State
		st.AddSlice(xs)
		ref.AddSliceRef(xs)
		if !math.IsNaN(st.Finalize()) || !math.IsNaN(ref.Finalize()) {
			t.Fatal("NaN poison lost")
		}
	})
	t.Run("inf", func(t *testing.T) {
		xs := base()
		xs[len(xs)/2] = math.Inf(-1)
		pinAllPaths(t, "inf", xs)
		var st State
		st.AddSlice(xs)
		if got := st.Finalize(); !math.IsInf(got, -1) {
			t.Fatalf("got %g, want -Inf", got)
		}
	})
	t.Run("both-inf", func(t *testing.T) {
		xs := base()
		xs[100] = math.Inf(1)
		xs[len(xs)-100] = math.Inf(-1)
		var st, ref State
		st.AddSlice(xs)
		ref.AddSliceRef(xs)
		if !math.IsNaN(st.Finalize()) || !math.IsNaN(ref.Finalize()) {
			t.Fatal("Inf/-Inf must finalize NaN")
		}
	})
}

// TestGroupKernelContract checks the group kernels' consumption
// contract: whole groups, stopping at the first group containing an
// ineligible element, quad layout intact.
func TestGroupKernelContract(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 1e300, 8, 9, 10}
	var consts [3]float64
	s := 33 // window of 1..10 (unbiased exponents 0..3)
	consts[0] = bigTab[s+pad]
	consts[1] = bigTab[s+pad-1]
	consts[2] = bigTab[s+pad-2]
	efLo := int64(BinWidth*s) - (BinWidth + 51)
	efSpan := int64(BinWidth*s-20) - efLo

	var q4 [16]float64
	if got := depositGroupsGo(xs, &consts, efLo, efSpan, &q4); got != 4 {
		t.Fatalf("Go4 consumed %d, want 4 (stop at group with 1e300)", got)
	}
	var qf [16]float64
	if got := depositGroupsFast(xs, &consts, efLo, efSpan, &qf); got != 4 {
		t.Fatalf("fast kernel consumed %d, want 4", got)
	}
	if qf != q4 {
		t.Fatal("fast kernel quad differs from portable quad")
	}
	// The quads represent the consumed prefixes exactly.
	sum4 := (q4[0] + q4[1] + q4[2] + q4[3]) + (q4[4] + q4[5] + q4[6] + q4[7]) +
		(q4[8] + q4[9] + q4[10] + q4[11]) + (q4[12] + q4[13] + q4[14] + q4[15])
	if sum4 != 1+2+3+4 {
		t.Fatalf("Go4 quad sums to %g, want 10", sum4)
	}
}
