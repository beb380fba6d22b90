package kernel_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/binned"
	"repro/internal/dd"
	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/reduce"
	"repro/internal/sum"
	"repro/internal/superacc"
)

func bits(v float64) uint64 { return math.Float64bits(v) }

// sizes covers the unroll and block edge cases: empty, tiny, at and
// around multiples of 2/4/8 (the binned kernel's sublanes) and of 64,
// and a large non-aligned length.
var sizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097}

// inputs generates the adversarial corners of the generator space at
// length n (n < 2 falls back to fixed values, gen requires N >= 2).
func inputs(n int) map[string][]float64 {
	switch n {
	case 0:
		return map[string][]float64{"empty": nil}
	case 1:
		return map[string][]float64{"single": {3.25}, "negsingle": {-0x1p-40}}
	}
	return map[string][]float64{
		"benign":    gen.Spec{N: n, Cond: 1, DynRange: 8, Seed: uint64(n)}.Generate(),
		"illcond":   gen.Spec{N: n, Cond: 1e8, DynRange: 24, Seed: uint64(n) + 1}.Generate(),
		"sumzero":   gen.Spec{N: n, Cond: math.Inf(1), DynRange: 32, Seed: uint64(n) + 2}.Generate(),
		"widerange": gen.Spec{N: n, Cond: 1e4, DynRange: 40, Seed: uint64(n) + 3}.Generate(),
	}
}

// TestKernelFoldEquivalence pins every reference-order kernel bitwise
// against the generic fold of its monoid, state component by state
// component, across algorithms x sizes x adversarial inputs.
func TestKernelFoldEquivalence(t *testing.T) {
	for _, n := range sizes {
		for name, xs := range inputs(n) {
			tag := fmt.Sprintf("n=%d/%s", n, name)

			if got, want := kernel.ST(xs), reduce.LeftFold[float64](sum.STMonoid{}, xs); bits(got) != bits(want) {
				t.Errorf("%s: ST kernel %x, reference fold %x", tag, bits(got), bits(want))
			}

			ks, kc := kernel.Kahan(xs)
			kref := reduce.LeftFold[sum.KState](sum.KahanMonoid{}, xs)
			if bits(ks) != bits(kref.S) || bits(kc) != bits(kref.C) {
				t.Errorf("%s: Kahan kernel (%x,%x), reference (%x,%x)",
					tag, bits(ks), bits(kc), bits(kref.S), bits(kref.C))
			}

			ns, nc := kernel.Neumaier(xs)
			nref := reduce.LeftFold[sum.NState](sum.NeumaierMonoid{}, xs)
			if bits(ns) != bits(nref.S) || bits(nc) != bits(nref.C) {
				t.Errorf("%s: Neumaier kernel (%x,%x), reference (%x,%x)",
					tag, bits(ns), bits(nc), bits(nref.S), bits(nref.C))
			}

			cp := kernel.CP(xs)
			cpref := reduce.LeftFold[dd.DD](sum.CPMonoid{}, xs)
			if bits(cp.Hi) != bits(cpref.Hi) || bits(cp.Lo) != bits(cpref.Lo) {
				t.Errorf("%s: CP kernel (%x,%x), reference (%x,%x)",
					tag, bits(cp.Hi), bits(cp.Lo), bits(cpref.Hi), bits(cpref.Lo))
			}
		}
	}
}

// edgeMix draws n operands from the pools where a fast path or a
// re-seeded kernel can part from the reference fold: signed zeros,
// signed subnormals, near-overflow magnitudes, exact cancellations of
// earlier operands, wide exponent spreads, and (when poison is set) an
// occasional infinity or NaN.
func edgeMix(r *fpu.RNG, n int, poison bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		var x float64
		switch r.Intn(8) {
		case 0:
			x = math.Copysign(0, float64(r.Intn(2))-0.5)
		case 1:
			x = math.Ldexp(r.Float64(), -1060+r.Intn(20)) // subnormal
		case 2:
			x = math.Ldexp(1+r.Float64(), 1000+r.Intn(23)) // near overflow
		case 3:
			if i > 0 {
				x = -xs[r.Intn(i)] // cancel an earlier operand
			}
		case 4:
			if poison && r.Intn(4) == 0 {
				x = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
			} else {
				x = math.Ldexp(r.Float64(), r.Intn(80)-40)
			}
		default:
			x = math.Ldexp(r.Float64(), r.Intn(2000)-1000)
		}
		if r.Bool() {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// TestKernelFoldEdgeMixes pins the reference-order kernels, state
// component by state component, against the generic fold on 200
// generated edge mixes (a quarter of them poisoned): the cases the
// smooth gen.Spec inputs never reach, such as CP's skipped second
// FastTwoSum, the xs[0] seeds, and Neumaier's branch-free residual.
// A NaN component must stay NaN; which NaN payload propagates is left
// to the hardware (IEEE 754 does not fix it), so payloads are not
// compared.
func TestKernelFoldEdgeMixes(t *testing.T) {
	same := func(a, b float64) bool { return bits(a) == bits(b) || (math.IsNaN(a) && math.IsNaN(b)) }
	sets := [][]float64{
		// (MaxFloat64, 2^969) then +2^969: CP's first FastTwoSum is exact
		// but its sum overflows, so the full step must run.
		{math.MaxFloat64, 0x1p969, 0x1p969},
	}
	r := fpu.NewRNG(1605)
	for len(sets) < 200 {
		sets = append(sets, edgeMix(r, 1+r.Intn(64), len(sets)%4 == 0))
	}
	for set, xs := range sets {
		pair := func(alg string, gs, gc, ws, wc float64) {
			if !same(gs, ws) || !same(gc, wc) {
				t.Errorf("set %d %v: %s kernel (%x,%x), reference (%x,%x)",
					set, xs, alg, bits(gs), bits(gc), bits(ws), bits(wc))
			}
		}
		ks, kc := kernel.Kahan(xs)
		kref := reduce.LeftFold[sum.KState](sum.KahanMonoid{}, xs)
		pair("Kahan", ks, kc, kref.S, kref.C)
		ns, nc := kernel.Neumaier(xs)
		nref := reduce.LeftFold[sum.NState](sum.NeumaierMonoid{}, xs)
		pair("Neumaier", ns, nc, nref.S, nref.C)
		cp := kernel.CP(xs)
		cpref := reduce.LeftFold[dd.DD](sum.CPMonoid{}, xs)
		pair("CP", cp.Hi, cp.Lo, cpref.Hi, cpref.Lo)
		st := sum.STMonoid{}.FoldSlice(xs)
		pair("ST", st, 0, reduce.LeftFold[float64](sum.STMonoid{}, xs), 0)
	}
}

// TestReduceFoldFastPathEquivalence proves the end-to-end substitution:
// reduce.Fold over the sum monoids (which now route through FoldSlice)
// returns the identical bits to the generic reference fold.
func TestReduceFoldFastPathEquivalence(t *testing.T) {
	for _, n := range sizes {
		for name, xs := range inputs(n) {
			tag := fmt.Sprintf("n=%d/%s", n, name)
			check := func(alg string, got, want float64) {
				if bits(got) != bits(want) {
					t.Errorf("%s/%s: Fold fast path %x, reference %x", tag, alg, bits(got), bits(want))
				}
			}
			stm := sum.STMonoid{}
			check("ST", reduce.Fold[float64](stm, xs), stm.Finalize(reduce.LeftFold[float64](stm, xs)))
			km := sum.KahanMonoid{}
			check("K", reduce.Fold[sum.KState](km, xs), km.Finalize(reduce.LeftFold[sum.KState](km, xs)))
			nm := sum.NeumaierMonoid{}
			check("N", reduce.Fold[sum.NState](nm, xs), nm.Finalize(reduce.LeftFold[sum.NState](nm, xs)))
			cm := sum.CPMonoid{}
			check("CP", reduce.Fold[dd.DD](cm, xs), cm.Finalize(reduce.LeftFold[dd.DD](cm, xs)))
			pm := sum.DefaultPRConfig().Monoid()
			check("PR", reduce.Fold[sum.PRState](pm, xs), pm.Finalize(reduce.LeftFold[sum.PRState](pm, xs)))
			bm := sum.BNMonoid{}
			check("BN", reduce.Fold[binned.State](bm, xs), bm.Finalize(reduce.LeftFold[binned.State](bm, xs)))
		}
	}
}

// TestOpFoldSliceMatchesLeftFold pins the collective local phase: every
// algorithm's dynamic Op folds a slice (Op.FoldSlice, the batch kernel)
// to the same finalized bits as the per-element boxed reference fold,
// on the adversarial inputs plus the IEEE edges where a kernel that
// starts from +0 instead of Leaf(xs[0]) would differ: signed zeros,
// infinities, NaN, overflow and signed subnormals.
func TestOpFoldSliceMatchesLeftFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	edges := map[string][]float64{
		"empty":       {},
		"negzero":     {negZero},
		"negzero2":    {negZero, negZero},
		"inf":         {inf},
		"neginf":      {-inf},
		"lone-nan":    {math.NaN()},
		"inf-then-1":  {inf, 1},
		"inf-clash":   {inf, -inf},
		"nan":         {1, math.NaN(), 2},
		"overflow":    {math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		"subnormals":  {0x1p-1074, -0x1p-1074, -0x1p-1060, 0x1p-1070, negZero},
		"negsubnorm":  {-0x1p-1074, negZero, -0x1p-1073},
		"zero-mix":    {negZero, 0, negZero},
		"neginf-tail": {1, 2, -inf},
	}
	sets := []map[string][]float64{edges}
	for _, n := range sizes {
		sets = append(sets, inputs(n))
	}
	for _, alg := range sum.Algorithms {
		op := alg.Op()
		for _, set := range sets {
			for name, xs := range set {
				got := op.Finalize(op.FoldSlice(nil, xs))
				want := op.Finalize(reduce.LeftFold(op, xs))
				if bits(got) != bits(want) {
					t.Errorf("%v/n=%d/%s: FoldSlice %x (%g), LeftFold %x (%g)",
						alg, len(xs), name, bits(got), got, bits(want), want)
				}
			}
		}
	}
}

// TestKernelNonFinite checks the poison semantics the selector's profile
// promises: non-finite inputs yield non-finite results from every
// kernel, matching the generic fold's IEEE propagation.
func TestKernelNonFinite(t *testing.T) {
	poisoned := map[string][]float64{
		"nan":      {1, 2, math.NaN(), 4, 5, 6, 7, 8, 9},
		"inf":      {1, math.Inf(1), 2, 3, 4, 5, 6, 7, 8},
		"neginf":   {math.Inf(-1), 1, 2, 3, 4, 5, 6, 7, 8},
		"infclash": {math.Inf(1), math.Inf(-1), 1, 2, 3, 4, 5, 6, 7},
	}
	for name, xs := range poisoned {
		nonFinite := func(kind string, v float64) {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Errorf("%s/%s: finite result %g from poisoned input", name, kind, v)
			}
		}
		nonFinite("ST", kernel.ST(xs))
		s, _ := kernel.Kahan(xs)
		nonFinite("Kahan", s)
		s, c := kernel.Neumaier(xs)
		nonFinite("Neumaier", s+c)
		nonFinite("CP-hi", kernel.CP(xs).Hi)
		// The ST kernel must propagate exactly as the generic fold does
		// (same NaN-vs-Inf outcome), since it is a bit-identical fast path.
		got, want := kernel.ST(xs), reduce.LeftFold[float64](sum.STMonoid{}, xs)
		if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(got) && bits(got) != bits(want)) {
			t.Errorf("%s: ST kernel %v, reference fold %v", name, got, want)
		}
	}
}

// TestExactBatchDeposit pins the superaccumulator batch loop (used via
// kernel.Exact) bitwise against element-wise deposits, including the
// NaN poison path.
func TestExactBatchDeposit(t *testing.T) {
	for _, n := range sizes {
		for name, xs := range inputs(n) {
			batch := superacc.New()
			kernel.Exact(batch, xs)
			single := superacc.New()
			for _, x := range xs {
				single.Add(x)
			}
			if bits(batch.Float64()) != bits(single.Float64()) {
				t.Errorf("n=%d/%s: batch deposit %x, element-wise %x",
					n, name, bits(batch.Float64()), bits(single.Float64()))
			}
		}
	}
	poisoned := superacc.New()
	kernel.Exact(poisoned, []float64{1, math.NaN(), 2})
	if !math.IsNaN(poisoned.Float64()) {
		t.Error("batch deposit dropped the NaN poison flag")
	}
}

// TestKernelAllocs pins the zero-allocation contract of every kernel
// fold, mirroring the fused-engine alloc tests.
func TestKernelAllocs(t *testing.T) {
	xs := gen.Spec{N: 4097, Cond: 1e4, DynRange: 16, Seed: 77}.Generate()
	var sinkF float64
	var sinkDD dd.DD
	folds := map[string]func(){
		"ST":       func() { sinkF = kernel.ST(xs) },
		"Kahan":    func() { sinkF, _ = kernel.Kahan(xs) },
		"Neumaier": func() { sinkF, _ = kernel.Neumaier(xs) },
		"CP":       func() { sinkDD = kernel.CP(xs) },
	}
	for name, f := range folds {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocs per fold, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkDD
}
