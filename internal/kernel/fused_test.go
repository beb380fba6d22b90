package kernel_test

import (
	"math"
	"testing"

	"repro/internal/kernel"
)

// fusedInputs extends the shared adversarial corners with the cases the
// fused kernel special-cases in its loop: zeros (skipped by the profile
// arms, folded by the ST shadow), signed zeros, subnormals (slow-path
// exponent decode), and non-finite poison.
func fusedInputs(n int) map[string][]float64 {
	m := inputs(n)
	if n < 2 {
		return m
	}
	zeros := make([]float64, n)
	for i := range zeros {
		if i%3 == 0 {
			zeros[i] = float64(i%7) - 3
		}
	}
	zeros[1] = math.Copysign(0, -1)
	m["zeroheavy"] = zeros
	sub := make([]float64, n)
	for i := range sub {
		sub[i] = math.Ldexp(float64(i%5+1), -1070-i%4)
	}
	sub[n/2] = 0x1p-1022 // smallest normal, next to its subnormal neighbors
	m["subnormal"] = sub
	return m
}

// TestFusedProfileSumEquivalence pins the fused pass's two speculative
// sums bitwise against the standalone kernels: the ST shadow against
// kernel.ST always (non-finite values flow through both identically),
// and the compensated pair against kernel.Neumaier whenever the input
// holds no non-finite value.
func TestFusedProfileSumEquivalence(t *testing.T) {
	for _, n := range sizes {
		for name, xs := range fusedInputs(n) {
			a := kernel.FusedProfileSum(xs)
			if got, want := bits(a.ST), bits(kernel.ST(xs)); got != want {
				t.Errorf("n=%d %s: fused ST %x != kernel.ST %x", n, name, got, want)
			}
			s, c := kernel.Neumaier(xs)
			if bits(a.SumS) != bits(s) || bits(a.SumC) != bits(c) {
				t.Errorf("n=%d %s: fused pair (%x,%x) != Neumaier (%x,%x)",
					n, name, bits(a.SumS), bits(a.SumC), bits(s), bits(c))
			}
			if a.N != int64(len(xs)) {
				t.Errorf("n=%d %s: N=%d", n, name, a.N)
			}
		}
	}
}

// TestFusedProfileSumNonFinite checks the poison protocol: NaN/±Inf set
// the flag and still flow through the ST shadow with IEEE semantics,
// while the profile arms skip them.
func TestFusedProfileSumNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := []float64{1.5, bad, -2.25, 0, 8}
		a := kernel.FusedProfileSum(xs)
		if !a.NonFinite {
			t.Errorf("%v did not poison the accumulator", bad)
		}
		if got, want := bits(a.ST), bits(kernel.ST(xs)); got != want {
			t.Errorf("%v: poisoned ST shadow %x != kernel.ST %x", bad, got, want)
		}
		// The profile arms must hold only the finite values.
		if a.SumS != 1.5-2.25+8 || a.AbsS != 1.5+2.25+8 {
			t.Errorf("%v leaked into the profile sums: %g / %g", bad, a.SumS, a.AbsS)
		}
		if a.Pos != 2 || a.Neg != 1 || a.N != 5 {
			t.Errorf("%v: counts pos=%d neg=%d n=%d", bad, a.Pos, a.Neg, a.N)
		}
	}
}

// TestFusedProfileSumAllocs pins the fused pass as allocation-free.
func TestFusedProfileSumAllocs(t *testing.T) {
	xs := fusedInputs(4096)["benign"]
	var sink kernel.FusedAcc
	if n := testing.AllocsPerRun(100, func() {
		sink = kernel.FusedProfileSum(xs)
	}); n != 0 {
		t.Errorf("FusedProfileSum allocates %v per run", n)
	}
	_ = sink
}
