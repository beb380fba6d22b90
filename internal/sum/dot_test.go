package sum

import (
	"math"
	"testing"

	"repro/internal/fpu"
)

func TestDotVariants(t *testing.T) {
	r := fpu.NewRNG(5)
	n := 2000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = math.Ldexp(r.Float64()*2-1, r.Intn(30)-15)
		b[i] = math.Ldexp(r.Float64()*2-1, r.Intn(30)-15)
	}
	exact := DotExact(a, b)
	// CP and PR dots must be at least as accurate as ST.
	eST := math.Abs(DotStandard(a, b) - exact)
	eK := math.Abs(DotKahan(a, b) - exact)
	eCP := math.Abs(DotComposite(a, b) - exact)
	ePR := math.Abs(DotPrerounded(a, b) - exact)
	if eCP > eST || ePR > eST {
		t.Errorf("dot accuracy ladder violated: ST=%g K=%g CP=%g PR=%g", eST, eK, eCP, ePR)
	}
}

func TestDotPreroundedPermutationInvariant(t *testing.T) {
	r := fpu.NewRNG(6)
	n := 1000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = math.Ldexp(r.Float64()*2-1, r.Intn(60)-30)
		b[i] = math.Ldexp(r.Float64()*2-1, r.Intn(60)-30)
	}
	want := DotPrerounded(a, b)
	for trial := 0; trial < 10; trial++ {
		// Permute the index pairing jointly.
		perm := r.Perm(n)
		pa := make([]float64, n)
		pb := make([]float64, n)
		for i, j := range perm {
			pa[i], pb[i] = a[j], b[j]
		}
		if got := DotPrerounded(pa, pb); got != want {
			t.Fatalf("PR dot order-dependent: %g vs %g", got, want)
		}
	}
}

func TestDotCancellingVectors(t *testing.T) {
	// a·b with exact cancellation: ST loses it, CP/PR keep it.
	a := []float64{1e8, 1e8, 1.0}
	b := []float64{1e8, -1e8, 1e-8}
	exact := DotExact(a, b) // = 1e-8
	if exact != 1e-8 {
		t.Fatalf("oracle = %g", exact)
	}
	if got := DotComposite(a, b); got != 1e-8 {
		t.Errorf("CP dot = %g", got)
	}
	if got := DotStandard(a, b); got == 1e-8 {
		t.Log("ST happened to be exact here (acceptable)")
	}
}

func TestDotDispatchAndMismatch(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	for _, alg := range Algorithms {
		if got := Dot(alg, a, b); got != 11 {
			t.Errorf("%v dot = %g", alg, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	DotStandard([]float64{1}, []float64{1, 2})
}
