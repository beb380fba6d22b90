package superacc

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/fpu"
)

// refSum computes the correctly rounded sum via big.Float at high precision.
func refSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(2200).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func TestSingleValues(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.5, math.Pi, 1e300, -1e300, 1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		0x1p-1022,               // smallest normal
		0x1.fffffffffffffp-1023, // largest subnormal
		1.5e-310,                // subnormal
		6755399441055744.0,      // 1.5*2^52
		-0x1.0000000000001p+0,   // 1+ulp
	}
	for _, x := range cases {
		var a Acc
		a.Add(x)
		if got := a.Float64(); got != x && !(math.IsNaN(got) && math.IsNaN(x)) {
			t.Errorf("roundtrip(%g) = %g (bits %x vs %x)", x, got,
				math.Float64bits(got), math.Float64bits(x))
		}
	}
}

func TestExactCancellation(t *testing.T) {
	var a Acc
	a.Add(1e9)
	a.Add(1e-9)
	a.Add(-1e9)
	if got := a.Float64(); got != 1e-9 {
		t.Errorf("1e9 + 1e-9 - 1e9 = %g, want 1e-9", got)
	}
}

func TestOrderIndependenceExhaustive(t *testing.T) {
	xs := []float64{1e9, -1e9, 1e-9, 3.14, -2.5e8, 0x1p-1050}
	perms := permute(len(xs))
	var want float64
	for pi, p := range perms {
		var a Acc
		for _, i := range p {
			a.Add(xs[i])
		}
		got := a.Float64()
		if pi == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("perm %d: sum %g != %g", pi, got, want)
		}
	}
	if want != refSum(xs) {
		t.Errorf("exact sum %g != reference %g", want, refSum(xs))
	}
}

func permute(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	sub := permute(n - 1)
	var out [][]int
	for _, p := range sub {
		for i := 0; i <= len(p); i++ {
			q := make([]int, 0, n)
			q = append(q, p[:i]...)
			q = append(q, n-1)
			q = append(q, p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestAgainstBigFloatProperty(t *testing.T) {
	rng := fpu.NewRNG(1234)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		r := fpu.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			// Wide dynamic range, mixed signs.
			e := r.Intn(600) - 300
			xs[i] = math.Ldexp(r.Float64()*2-1, e)
		}
		got := Sum(xs)
		want := refSum(xs)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Logf("sum mismatch: %g vs %g (n=%d seed=%d)", got, want, n, seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSubnormalResults(t *testing.T) {
	// Sum lands exactly in the subnormal range.
	xs := []float64{0x1p-1060, 0x1p-1060, -0x1p-1061}
	got := Sum(xs)
	want := 0x1.8p-1060
	if got != want {
		t.Errorf("subnormal sum = %g, want %g", got, want)
	}
}

func TestRoundingTiesToEven(t *testing.T) {
	// 1 + 2^-53 is exactly halfway between 1 and 1+2^-52: must round to 1.
	got := Sum([]float64{1, 0x1p-53})
	if got != 1 {
		t.Errorf("tie not rounded to even: %g (bits %x)", got, math.Float64bits(got))
	}
	// 1 + 2^-53 + 2^-100: sticky bit set, must round up.
	got = Sum([]float64{1, 0x1p-53, 0x1p-100})
	if got != 1+0x1p-52 {
		t.Errorf("sticky rounding failed: %g", got)
	}
	// (1+2^-52) + 2^-53: halfway, mantissa odd, rounds up to 1+2^-51.
	got = Sum([]float64{1 + 0x1p-52, 0x1p-53})
	if got != 1+0x1p-51 {
		t.Errorf("ties-to-even up case failed: %g", got)
	}
}

func TestNegativeSums(t *testing.T) {
	xs := []float64{-1.5, -2.25, 0.75}
	if got := Sum(xs); got != -3.0 {
		t.Errorf("negative sum = %g, want -3", got)
	}
}

func TestOverflowToInf(t *testing.T) {
	var a Acc
	for i := 0; i < 4; i++ {
		a.Add(math.MaxFloat64)
	}
	if got := a.Float64(); !math.IsInf(got, 1) {
		t.Errorf("4*MaxFloat64 should be +Inf, got %g", got)
	}
	a.Reset()
	for i := 0; i < 4; i++ {
		a.Add(-math.MaxFloat64)
	}
	if got := a.Float64(); !math.IsInf(got, -1) {
		t.Errorf("-4*MaxFloat64 should be -Inf, got %g", got)
	}
}

func TestNaNPoisons(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(math.NaN())
	if !math.IsNaN(a.Float64()) {
		t.Error("NaN did not poison the accumulator")
	}
	a.Reset()
	a.Add(math.Inf(1))
	if !math.IsNaN(a.Float64()) {
		t.Error("Inf should poison (exact sum undefined)")
	}
}

func TestMerge(t *testing.T) {
	r := fpu.NewRNG(77)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Ldexp(r.Float64()*2-1, r.Intn(100)-50)
	}
	var whole Acc
	whole.AddSlice(xs)
	var left, right Acc
	left.AddSlice(xs[:400])
	right.AddSlice(xs[400:])
	left.Merge(&right)
	if got, want := left.Float64(), whole.Float64(); got != want {
		t.Errorf("merged sum %g != whole sum %g", got, want)
	}
	// Merge must not mutate its argument.
	var rcheck Acc
	rcheck.AddSlice(xs[400:])
	if right.Float64() != rcheck.Float64() {
		t.Error("Merge mutated its argument")
	}
}

// batchSets generates inputs-style sets at length n: benign same-sign
// data, an ill-conditioned mix, an exactly cancelling set and values
// spread over the whole double range (subnormals included).
func batchSets(n int) map[string][]float64 {
	if n < 2 {
		return map[string][]float64{"short": []float64{3.25}[:n]}
	}
	r := fpu.NewRNG(uint64(n))
	gen := func(f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	sumZero := make([]float64, n)
	for i := 0; i+1 < n; i += 2 {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(32)-16)
		sumZero[i], sumZero[i+1] = v, -v
	}
	r.Shuffle(sumZero)
	illCond := gen(func() float64 { return math.Ldexp(r.Float64()*2-1, r.Intn(24)) })
	illCond[0], illCond[n-1] = 1e8, -1e8
	return map[string][]float64{
		"benign":    gen(func() float64 { return math.Ldexp(r.Float64()+0.5, r.Intn(8)) }),
		"illcond":   illCond,
		"sumzero":   sumZero,
		"widerange": gen(func() float64 { return math.Ldexp(r.Float64()*2-1, r.Intn(2097)-1074) }),
	}
}

// TestAddSliceBatchDeposit pins the batch loop every oracle runs
// (Sum is AddSlice then Float64) against element-wise Add: bit for bit
// on the final sum at lengths 0 to 4097, through a carry pass at the
// normalizeEvery budget, and under NaN and Inf poisoning.
func TestAddSliceBatchDeposit(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097}
	for _, n := range sizes {
		for name, xs := range batchSets(n) {
			var batch, single Acc
			batch.AddSlice(xs)
			for _, x := range xs {
				single.Add(x)
			}
			if got, want := math.Float64bits(batch.Float64()), math.Float64bits(single.Float64()); got != want {
				t.Errorf("n=%d/%s: batch deposit %x, element-wise %x", n, name, got, want)
			}
		}
	}
	// Start both accumulators a few deposits short of the carry budget,
	// so AddSlice must split its batch at the budget and run the carry
	// pass where Add does: the whole state must agree afterwards.
	xs := batchSets(1000)["widerange"]
	xs[3], xs[10] = 0, math.Copysign(0, -1) // zeros consume no budget
	for _, left := range []int{1, 3, 100} {
		var batch, single Acc
		for _, a := range []*Acc{&batch, &single} {
			a.Add(math.MaxFloat64)
			a.Add(-0x1p-1074)
			a.pending = normalizeEvery - left
		}
		batch.AddSlice(xs)
		for _, x := range xs {
			single.Add(x)
		}
		if batch != single {
			t.Errorf("%d deposits from the budget: batch state differs from element-wise", left)
		}
		if batch.pending >= len(xs) {
			t.Errorf("%d deposits from the budget: no carry pass ran (pending %d)", left, batch.pending)
		}
		if math.Float64bits(batch.Float64()) != math.Float64bits(single.Float64()) {
			t.Errorf("%d deposits from the budget: batch %g, element-wise %g", left, batch.Float64(), single.Float64())
		}
	}
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var a Acc
		a.AddSlice([]float64{1, poison, 2})
		if !math.IsNaN(a.Float64()) {
			t.Errorf("batch deposit dropped the %g poison flag", poison)
		}
	}
}

func TestSignAndIsZero(t *testing.T) {
	var a Acc
	if a.Sign() != 0 || !a.IsZero() {
		t.Error("empty accumulator should be zero")
	}
	a.Add(3)
	a.Add(-3)
	if !a.IsZero() {
		t.Error("3-3 should be exactly zero")
	}
	a.Add(-1e-300)
	if a.Sign() != -1 {
		t.Error("sign should be negative")
	}
	a.Add(2e-300)
	if a.Sign() != 1 {
		t.Error("sign should be positive")
	}
}

func TestManyDepositsNormalization(t *testing.T) {
	// Enough same-limb deposits to exercise intermediate carries.
	var a Acc
	n := 1 << 16
	for i := 0; i < n; i++ {
		a.Add(1.0)
		a.Add(0x1p-40)
	}
	want := float64(n) + float64(n)*0x1p-40
	if got := a.Float64(); got != want {
		t.Errorf("repeated deposits: %g, want %g", got, want)
	}
}

func TestBigFloatAgrees(t *testing.T) {
	xs := []float64{1e9, -1e9, 1e-9, math.Pi, -1e-20}
	var a Acc
	a.AddSlice(xs)
	bf := a.BigFloat(2200)
	f64, _ := bf.Float64()
	if f64 != a.Float64() {
		t.Errorf("BigFloat %g disagrees with Float64 %g", f64, a.Float64())
	}
}

func TestSumZeroSeries(t *testing.T) {
	// Construct an exactly-cancelling set and shuffle it many times.
	r := fpu.NewRNG(99)
	base := make([]float64, 0, 2000)
	for i := 0; i < 1000; i++ {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(64)-32)
		base = append(base, v, -v)
	}
	for trial := 0; trial < 20; trial++ {
		r.Shuffle(base)
		if got := Sum(base); got != 0 {
			t.Fatalf("trial %d: exact-zero set summed to %g", trial, got)
		}
	}
}
