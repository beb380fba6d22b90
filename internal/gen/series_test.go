package gen

import (
	"math"
	"testing"

	"repro/internal/bigref"
	"repro/internal/metrics"
	"repro/internal/sum"
)

func TestAlternatingHarmonicConverges(t *testing.T) {
	xs := AlternatingHarmonic(1 << 20)
	got := sum.Composite(xs)
	// Truncation error of the alternating series is below 1/n.
	if math.Abs(got-math.Ln2) > 1.0/float64(len(xs)) {
		t.Errorf("partial sum %g too far from ln2 %g", got, math.Ln2)
	}
	// Signs must alternate.
	if xs[0] < 0 || xs[1] > 0 {
		t.Error("sign pattern wrong")
	}
}

func TestBaselConverges(t *testing.T) {
	n := 1 << 20
	xs := Basel(n)
	got := sum.Composite(xs)
	limit := math.Pi * math.Pi / 6
	// Truncation error ~ 1/n.
	if math.Abs(got-limit) > 2.0/float64(n) {
		t.Errorf("partial sum %g too far from pi^2/6 %g", got, limit)
	}
	if k := metrics.CondNumber(xs); k != 1 {
		t.Errorf("Basel k = %g, want 1 (same sign)", k)
	}
}

func TestBaselOrderingEffect(t *testing.T) {
	// The textbook claim: ascending order is far more accurate than
	// descending for same-sign decaying terms under ST.
	xs := Basel(1 << 18)
	exact := bigref.SumFloat64(xs)
	ascErr := math.Abs(sum.SortedAscending(xs) - exact)
	descErr := math.Abs(sum.SortedDescending(xs) - exact)
	if ascErr > descErr {
		t.Errorf("ascending (%g) not better than descending (%g)", ascErr, descErr)
	}
}

func TestGeometricExact(t *testing.T) {
	xs := Geometric(30, 0.5)
	// Partial sum of ratio 1/2 from 1: 2 - 2^-29 exactly.
	want := 2 - math.Ldexp(1, -29)
	for _, alg := range sum.Algorithms {
		if got := alg.Sum(xs); got != want {
			t.Errorf("%v: %g, want %g", alg, got, want)
		}
	}
}

func TestRumpPolynomialTerms(t *testing.T) {
	xs, exact := RumpPolynomialTerms()
	if got := bigref.SumFloat64(xs); got != exact {
		t.Fatalf("constructed exact sum %g != declared %g", got, exact)
	}
	// Naive left-to-right happens to be exact here (powers of two), so
	// scramble: descending-magnitude order absorbs the survivor.
	if got := sum.SortedDescending(xs); got == exact {
		t.Log("descending coincidentally exact (acceptable)")
	}
	if got := sum.Composite(xs); got != exact {
		t.Errorf("CP lost the survivor: %g", got)
	}
	if got := sum.Binned(xs); got != exact {
		t.Errorf("BN lost the survivor: %g", got)
	}
}

func TestOscillatingDecayConditioning(t *testing.T) {
	xs := OscillatingDecay(4096, 30, 1)
	k := metrics.CondNumber(xs)
	if k < 1e6 {
		t.Errorf("carrier cancellation should make k large, got %g", k)
	}
	// Larger carrier, larger k.
	k2 := metrics.CondNumber(OscillatingDecay(4096, 45, 1))
	if k2 <= k {
		t.Errorf("k did not grow with carrier: %g vs %g", k2, k)
	}
	// Odd n keeps the carrier balanced.
	xsOdd := OscillatingDecay(4097, 30, 2)
	if kOdd := metrics.CondNumber(xsOdd); kOdd < 1e6 {
		t.Errorf("odd-n carrier unbalanced: k = %g", kOdd)
	}
}

func TestSeriesAlgorithmLadder(t *testing.T) {
	// On the oscillating-decay workload the compensated ladder shows.
	xs := OscillatingDecay(1<<16, 40, 3)
	exact := bigref.SumFloat64(xs)
	eST := math.Abs(sum.Standard(xs) - exact)
	eCP := math.Abs(sum.Composite(xs) - exact)
	ePR := math.Abs(sum.Prerounded(xs) - exact)
	if eCP > eST || ePR > eST {
		t.Errorf("ladder violated: ST=%g CP=%g PR=%g", eST, eCP, ePR)
	}
}
