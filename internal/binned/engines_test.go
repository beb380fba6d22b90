package binned

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/superacc"
)

// checkEngines deposits xs through AddSlice once per group kernel this
// host runs and fails unless every engine's State equals the portable
// kernel's field for field: all engines perform the same exact
// operations, each element landing in the same sublane, so even the
// in-memory bin decomposition must match, not just Finalize. It
// returns the portable State.
func checkEngines(t *testing.T, label string, xs []float64) State {
	t.Helper()
	var want State
	for i, e := range hostEngines() {
		restore := e.install()
		var st State
		st.AddSlice(xs)
		restore()
		if i == 0 {
			want = st
		} else if st != want {
			t.Fatalf("%s (n=%d): %s and portable states differ", label, len(xs), e.name)
		}
	}
	return want
}

// TestEngineBitEquality runs every engine the host supports over runs
// that reach each branch of the 8-wide kernel and its AVX2 tail: every
// length mod 8, an ineligible element in either half of an 8-group,
// anchor churn at every group offset, and NaN, ±Inf and top-of-range
// operands mid-run.
func TestEngineBitEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mant := func() float64 {
		m := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		return m
	}
	// window fills xs with values of one anchor window (unbiased
	// exponents 0..13, window 33), every element eligible.
	window := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(mant(), rng.Intn(14))
		}
		return xs
	}
	// The cases share rng, so they run in a fixed order.
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"random", func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				xs := make([]float64, 1+rng.Intn(20000))
				for i := range xs {
					e := rng.Intn(120) - 60
					if trial%3 == 0 {
						e = rng.Intn(17) // single two-window regime
					}
					xs[i] = math.Ldexp(mant(), e)
				}
				checkEngines(t, "random", xs)
			}
		}},
		{"lengths-mod-8", func(t *testing.T) {
			for _, k := range []int{0, 1, 2, 5, 129} {
				for r := 0; r < 8; r++ {
					checkEngines(t, "lengths", window(8*k+r))
				}
			}
		}},
		{"ineligible-in-either-half", func(t *testing.T) {
			for p := 0; p < 8; p++ { // p < 4: first half, else second
				for _, g := range []int{0, 1, 7} {
					for _, n := range []int{64, 67, 70} {
						xs := window(n)
						xs[8*g+p] = math.Ldexp(mant(), 300)
						checkEngines(t, "ineligible", xs)
					}
				}
			}
		}},
		{"anchor-churn", func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				var xs []float64
				for len(xs) < 2000 {
					e := rng.Intn(200) - 100
					for run := 1 + rng.Intn(20); run > 0; run-- {
						xs = append(xs, math.Ldexp(mant(), e+rng.Intn(8)))
					}
				}
				checkEngines(t, "churn", xs)
			}
		}},
		{"specials-mid-run", func(t *testing.T) {
			specials := []float64{
				math.NaN(), math.Inf(1), math.Inf(-1),
				math.MaxFloat64, -math.MaxFloat64, math.Ldexp(mant(), 1000),
				0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
			}
			for _, s := range specials {
				for trial := 0; trial < 8; trial++ {
					xs := window(200 + rng.Intn(16))
					for k := 0; k < 3; k++ {
						xs[rng.Intn(len(xs))] = s
					}
					checkEngines(t, "specials", xs)
				}
			}
		}},
		{"run-length-R", func(t *testing.T) {
			if testing.Short() {
				t.Skip("R-length run")
			}
			// Full mantissas at the window's top exponent, same sign:
			// the h grade reaches its proven capacity.
			xs := make([]float64, renormEvery+13)
			for i := range xs {
				xs[i] = math.Ldexp(1+rng.Float64(), 13)
			}
			checkEngines(t, "R+13", xs)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// FuzzDepositEngines differentially fuzzes the group kernels: the
// input's bytes, eight at a time, are float64 operands; every engine
// the host runs must build the portable kernel's State, and on finite
// input its Finalize must equal superacc.Sum. The seeds are the files
// under testdata/fuzz/FuzzDepositEngines, which plain go test replays.
func FuzzDepositEngines(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		finite := true
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			finite = finite && !math.IsNaN(xs[i]) && !math.IsInf(xs[i], 0)
		}
		st := checkEngines(t, "fuzz", xs)
		if !finite {
			return
		}
		if got, want := st.Finalize(), superacc.Sum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Finalize %x (%v), superacc %x (%v)", math.Float64bits(got), got, math.Float64bits(want), want)
		}
	})
}
