package superacc_test

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/superacc"
)

// exactPrec holds any value the accumulator spans (2176 bits) exactly.
const exactPrec = 2400

// scaled returns bigref's sum of xs times 2^e2, exactly: the 256-bit
// reference sum is exact for operands this test draws within a few
// dozen binades of each other, and scaling by a power of two is exact.
func scaled(xs []float64, e2 int) *big.Float {
	s := new(big.Float).SetPrec(exactPrec).Set(bigref.Sum(xs))
	return s.SetMantExp(s, e2)
}

// TestAddLdexpAgainstBigref checks the scaled deposit that the binned
// tests use as their oracle: AddLdexp(x, e2) of every x must hold
// exactly bigref's sum times 2^e2, for subnormal and normal operands,
// both signs, and scales that carry the value past the float64 range
// into the accumulator's headroom bits. Float64 must round that value
// as math/big does, to ±Inf beyond the range.
func TestAddLdexpAgainstBigref(t *testing.T) {
	rng := fpu.NewRNG(5)
	draw := func(n, minExp, span int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(rng.Float64()+0.5, minExp+rng.Intn(span))
			if rng.Bool() {
				xs[i] = -xs[i]
			}
		}
		return xs
	}
	subnormals := make([]float64, 40)
	for i := range subnormals {
		subnormals[i] = math.Float64frombits(uint64(rng.Intn(1<<30))<<20 | uint64(rng.Intn(1<<20)) + 1)
		if i%3 == 0 {
			subnormals[i] = -subnormals[i]
		}
	}
	cases := []struct {
		name string
		xs   []float64
		e2s  []int
	}{
		{"normal", draw(50, -20, 40), []int{0, 1, -900, 512, 990}},
		{"tiny normal", draw(50, -1022, 30), []int{0, 3, 1000, 2000}},
		{"subnormal", subnormals, []int{0, 1, 52, 1074, 2100}},
		{"max", []float64{math.MaxFloat64, math.MaxFloat64, -0x1p1000}, []int{0, 1, 40, 66}},
		{"positive", []float64{1, 0x1p-52, 3, 0x1.8p10}, []int{-970, 0, 1030, 1070}},
		{"negative", []float64{-1, -0x1p-52, -3}, []int{-970, 0, 1030}},
	}
	for _, c := range cases {
		for _, e2 := range c.e2s {
			var a superacc.Acc
			for _, x := range c.xs {
				a.AddLdexp(x, e2)
			}
			want := scaled(c.xs, e2)
			if a.BigFloat(exactPrec).Cmp(want) != 0 {
				t.Errorf("%s e2=%d: accumulator %v, want %v", c.name, e2, a.BigFloat(exactPrec), want)
				continue
			}
			wantF, _ := want.Float64()
			if got := a.Float64(); math.Float64bits(got) != math.Float64bits(wantF) {
				t.Errorf("%s e2=%d: Float64 %g, want %g", c.name, e2, got, wantF)
			}
		}
	}
}

// TestAddLdexpZeroScaleIsAdd pins AddLdexp(x, 0) to Add(x), bit for bit.
func TestAddLdexpZeroScaleIsAdd(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, math.Pi, 1e300, -1e-300,
		math.SmallestNonzeroFloat64, -0x1.fffffffffffffp-1023, 0x1p-1022, math.MaxFloat64}
	var a, b superacc.Acc
	for _, x := range xs {
		a.Add(x)
		b.AddLdexp(x, 0)
		if a.BigFloat(exactPrec).Cmp(b.BigFloat(exactPrec)) != 0 {
			t.Fatalf("after %g: AddLdexp(x, 0) %v, Add %v", x, b.BigFloat(exactPrec), a.BigFloat(exactPrec))
		}
	}
}

// TestAddLdexpNonFinitePoisons checks that NaN and ±Inf poison the
// accumulator at any scale, as Add does.
func TestAddLdexpNonFinitePoisons(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var a superacc.Acc
		a.AddLdexp(1, 0)
		a.AddLdexp(x, -3000)
		if !math.IsNaN(a.Float64()) || a.BigFloat(exactPrec) != nil {
			t.Errorf("AddLdexp(%g): accumulator not poisoned", x)
		}
	}
}

// TestAddLdexpOutOfRangePanics checks that a scaled position outside the
// accumulator's span panics rather than wrapping, and that zero, which
// deposits nothing, never does.
func TestAddLdexpOutOfRangePanics(t *testing.T) {
	for _, c := range []struct {
		x  float64
		e2 int
	}{
		{math.SmallestNonzeroFloat64, -1}, // below the lowest bit
		{1, -1075},
		{math.MaxFloat64, 67}, // past the headroom
		{-math.MaxFloat64, 67},
		{math.SmallestNonzeroFloat64, 2112},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddLdexp(%g, %d) did not panic", c.x, c.e2)
				}
			}()
			var a superacc.Acc
			a.AddLdexp(c.x, c.e2)
		}()
	}
	var a superacc.Acc
	a.AddLdexp(0, -5000)
	a.AddLdexp(0, 5000)
	if !a.IsZero() {
		t.Error("AddLdexp(0, ±5000) deposited something")
	}
}
