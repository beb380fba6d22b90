package sum

import (
	"math"
	"testing"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/superacc"
)

// Differential testing: every algorithm against the exact oracle across
// adversarial data families, with per-algorithm error budgets derived
// from their published bounds (Higham). A failure here is a real
// implementation bug, not statistical noise — the budgets carry
// generous constants.

type family struct {
	name string
	gen  func(n int, seed uint64) []float64
}

var families = []family{
	{"uniform", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*2 - 1
		}
		return xs
	}},
	{"wide-range-mixed", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			v := math.Ldexp(r.Float64()+0.5, r.Intn(64)-32)
			if r.Bool() {
				v = -v
			}
			xs[i] = v
		}
		return xs
	}},
	{"exact-cancel-pairs", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		xs := make([]float64, 0, n)
		for len(xs)+2 <= n {
			v := math.Ldexp(r.Float64()+0.5, r.Intn(40)-20)
			xs = append(xs, v, -v)
		}
		for len(xs) < n {
			xs = append(xs, 0)
		}
		r.Shuffle(xs)
		return xs
	}},
	{"pow2-ladder", func(n int, seed uint64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(1, i%50-25)
		}
		return xs
	}},
	{"duplicates", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		vals := []float64{0.1, -0.3, 1e10, -1e10, 7, 0x1p-30}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = vals[r.Intn(len(vals))]
		}
		return xs
	}},
	{"subnormal-heavy", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			v := math.Ldexp(r.Float64()+0.5, -1040-r.Intn(30))
			if r.Bool() {
				v = -v
			}
			xs[i] = v
		}
		return xs
	}},
	{"huge-plus-dust", func(n int, seed uint64) []float64 {
		r := fpu.NewRNG(seed)
		xs := make([]float64, n)
		xs[0] = 0x1p400
		xs[1] = -0x1p400
		for i := 2; i < n; i++ {
			xs[i] = r.Float64()*2 - 1
		}
		r.Shuffle(xs)
		return xs
	}},
}

func TestDifferentialAllAlgorithmsAllFamilies(t *testing.T) {
	u := fpu.UnitRoundoff
	for _, fam := range families {
		for _, n := range []int{3, 17, 256, 4097} {
			for seed := uint64(0); seed < 3; seed++ {
				xs := fam.gen(n, seed)
				// The huge-plus-dust family exceeds the 256-bit
				// big.Float oracle's range (see bigref.Prec docs); use
				// the exact superaccumulator oracle throughout.
				var oracle superacc.Acc
				oracle.AddSlice(xs)
				ref := oracle.BigFloat(2200)
				exact := oracle.Float64()
				var sumAbs float64
				for _, x := range xs {
					sumAbs += math.Abs(x)
				}
				nn := float64(n)
				maxAbs := 0.0
				for _, x := range xs {
					if a := math.Abs(x); a > maxAbs {
						maxAbs = a
					}
				}
				budget := map[Algorithm]float64{
					StandardAlg:   2 * nn * u * sumAbs,
					PairwiseAlg:   2 * nn * u * sumAbs,
					KahanAlg:      4*u*sumAbs + 8*nn*nn*u*u*sumAbs,
					NeumaierAlg:   4*u*sumAbs + 8*nn*nn*u*u*sumAbs,
					CompositeAlg:  2*u*math.Abs(exact) + 16*nn*u*u*sumAbs,
					PreroundedAlg: 4 * nn * maxAbs * 0x1p-77, // 3 folds below top + slack
				}
				for alg, bud := range budget {
					got := alg.Sum(xs)
					err := bigref.Err(got, ref)
					// Allow the representability floor.
					floor := math.Abs(exact) * u * 2
					if err > bud+floor {
						t.Errorf("%s n=%d seed=%d: %v error %g exceeds budget %g",
							fam.name, n, seed, alg, err, bud+floor)
					}
				}
				// BN, the exact engine, must be exactly the rounded sum.
				if got := Binned(xs); math.Float64bits(got) != math.Float64bits(exact) {
					t.Errorf("%s n=%d seed=%d: BN %g != exact %g",
						fam.name, n, seed, got, exact)
				}
			}
		}
	}
}

func TestDifferentialReproducibleUnderPermutation(t *testing.T) {
	r := fpu.NewRNG(77)
	for _, fam := range families {
		xs := fam.gen(513, 9)
		wantPR := Prerounded(xs)
		wantBN := Binned(xs)
		wantTP := PreroundedTwoPass(xs, 3)
		for trial := 0; trial < 5; trial++ {
			r.Shuffle(xs)
			if got := Prerounded(xs); got != wantPR {
				t.Errorf("%s: PR order-dependent", fam.name)
			}
			if got := Binned(xs); math.Float64bits(got) != math.Float64bits(wantBN) {
				t.Errorf("%s: BN order-dependent", fam.name)
			}
			if got := PreroundedTwoPass(xs, 3); got != wantTP {
				t.Errorf("%s: two-pass order-dependent", fam.name)
			}
		}
	}
}
