package selector

import (
	"math"
	"testing"

	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/sum"
)

// discreteEqual compares the exactly-mergeable profile fields: counts,
// exponent extremes, and flags. The compensated pairs are combined in
// different orders by different merge trees and may differ in their
// final bits; condEqual covers them at the resolution selection uses.
func discreteEqual(a, b Profile) bool {
	return a.N == b.N && a.Pos == b.Pos && a.Neg == b.Neg &&
		a.HasNonzero == b.HasNonzero && a.NonFinite == b.NonFinite &&
		(!a.HasNonzero || (a.MaxExp == b.MaxExp && a.MinExp == b.MinExp))
}

// condEqual compares condition estimates to far tighter than any
// selection threshold (the policies bucket k by decades).
func condEqual(a, b Profile) bool {
	ka, kb := a.Cond(), b.Cond()
	if math.IsInf(ka, 1) || math.IsInf(kb, 1) || math.IsNaN(ka) || math.IsNaN(kb) {
		return math.IsInf(ka, 1) == math.IsInf(kb, 1) &&
			math.IsNaN(ka) == math.IsNaN(kb)
	}
	return math.Abs(ka-kb) <= 1e-9*math.Abs(kb)
}

// propertySegments builds adversarial segment pools: ordinary data,
// empty segments, single elements, zeros, and NaN/Inf-poisoned runs.
func propertySegments() [][]float64 {
	return [][]float64{
		gen.Spec{N: 513, Cond: 1e4, DynRange: 24, Seed: 70}.Generate(),
		nil,
		{2.5},
		{0, 0, math.Copysign(0, -1)},
		gen.Spec{N: 64, Cond: math.Inf(1), DynRange: 16, Seed: 71}.Generate(),
		{1.5, math.NaN(), -8},
		{math.Inf(1)},
		gen.Spec{N: 200, Cond: 1, DynRange: 40, Seed: 72}.Generate(),
		{-0x1p-1070, 0x1p-1040}, // subnormals
	}
}

// TestProfileMergeAssociativityProperty: for every triple of segments,
// (a⊕b)⊕c and a⊕(b⊕c) agree exactly on the discrete fields and to
// rounding resolution on the condition estimate, and both agree with
// the single-pass profile of the concatenation. This is the property
// that makes tree-order profile merging (AllReduce, the parallel
// engine) sound regardless of bracketing.
func TestProfileMergeAssociativityProperty(t *testing.T) {
	segs := propertySegments()
	for i, sa := range segs {
		for j, sb := range segs {
			for k, sc := range segs {
				a, b, c := ProfileOf(sa), ProfileOf(sb), ProfileOf(sc)
				left := a.Merge(b).Merge(c)
				right := a.Merge(b.Merge(c))
				if !discreteEqual(left, right) {
					t.Fatalf("(%d,%d,%d): bracketing changed discrete fields:\n%+v\n%+v",
						i, j, k, left, right)
				}
				if !condEqual(left, right) {
					t.Fatalf("(%d,%d,%d): bracketing changed Cond: %g vs %g",
						i, j, k, left.Cond(), right.Cond())
				}
				var whole []float64
				whole = append(whole, sa...)
				whole = append(whole, sb...)
				whole = append(whole, sc...)
				w := ProfileOf(whole)
				if !discreteEqual(left, w) || !condEqual(left, w) {
					t.Fatalf("(%d,%d,%d): merged profile diverges from ProfileOf:\n%+v\n%+v",
						i, j, k, left, w)
				}
			}
		}
	}
}

// TestProfileMergeArbitrarySplits cuts one hostile sequence at every
// combination of two split points (covering empty and single-element
// parts) and checks three-way merges against the single pass.
func TestProfileMergeArbitrarySplits(t *testing.T) {
	xs := gen.Spec{N: 200, Cond: 1e6, DynRange: 32, Seed: 73}.Generate()
	xs[50] = 0
	xs[151] = math.Inf(-1)
	w := ProfileOf(xs)
	cuts := []int{0, 1, 2, 99, 100, 150, 151, 152, 199, 200}
	for _, i := range cuts {
		for _, j := range cuts {
			if j < i {
				continue
			}
			m := ProfileOf(xs[:i]).Merge(ProfileOf(xs[i:j])).Merge(ProfileOf(xs[j:]))
			if !discreteEqual(m, w) || !condEqual(m, w) {
				t.Fatalf("split (%d,%d) diverges:\n%+v\n%+v", i, j, m, w)
			}
		}
	}
}

// TestProfileTreeMergeAssociativityMatchesProfileOf pins how merged
// per-element profiles relate to the streaming pass: a left-to-right
// Add/Merge fold is bit-identical to ProfileOf in the compensated Σx
// pair and exactly equal in every discrete field, and balanced tree
// merges agree at selection resolution.
func TestProfileTreeMergeAssociativityMatchesProfileOf(t *testing.T) {
	leaf := func(x float64) Profile { return Profile{}.Add(x) }
	for name, xs := range fusedCases() {
		if len(xs) == 0 {
			continue
		}
		// Left-to-right fold of per-element leaves.
		serial := leaf(xs[0])
		for _, x := range xs[1:] {
			serial = serial.Merge(leaf(x))
		}
		want := ProfileOf(xs)
		if !discreteEqual(serial, want) {
			t.Errorf("%s: leaf fold discrete fields diverge:\n%+v\n%+v",
				name, serial, want)
		}
		if fbits(serial.Sum.S) != fbits(want.Sum.S) || fbits(serial.Sum.C) != fbits(want.Sum.C) {
			t.Errorf("%s: leaf fold Σx pair not bit-identical to ProfileOf", name)
		}
		if fbits(serial.SumAbs.Float64()) != fbits(want.SumAbs.Float64()) &&
			!condEqual(serial, want) {
			t.Errorf("%s: leaf fold Σ|x| diverges beyond rounding", name)
		}
		// Balanced tree merge of per-element leaves.
		profiles := make([]Profile, len(xs))
		for i, x := range xs {
			profiles[i] = leaf(x)
		}
		for len(profiles) > 1 {
			var next []Profile
			for i := 0; i+1 < len(profiles); i += 2 {
				next = append(next, profiles[i].Merge(profiles[i+1]))
			}
			if len(profiles)%2 == 1 {
				next = append(next, profiles[len(profiles)-1])
			}
			profiles = next
		}
		if treed := profiles[0]; !discreteEqual(treed, want) || !condEqual(treed, want) {
			t.Errorf("%s: balanced profile tree diverges from ProfileOf:\n%+v\n%+v",
				name, treed, want)
		}
	}
}

// TestCSumMatchesNeumaierState pins the representation identity the
// fused engine is built on: CSum.AddFloat64 chains and CSum.Add merges
// are bit-compatible with the sum package's Neumaier fold and monoid.
func TestCSumMatchesNeumaierState(t *testing.T) {
	xs := gen.Spec{N: 1000, Cond: 1e8, DynRange: 32, Seed: 74}.Generate()
	var c CSum
	acc := sum.NeumaierAlg.NewAccumulator()
	for _, x := range xs {
		c = c.AddFloat64(x)
		acc.Add(x)
	}
	if fbits(c.Float64()) != fbits(acc.Sum()) {
		t.Errorf("CSum chain %x != Neumaier accumulator %x",
			fbits(c.Float64()), fbits(acc.Sum()))
	}
	a := ProfileOf(xs[:333]).Sum
	b := ProfileOf(xs[333:]).Sum
	m := sum.NeumaierMonoid{}.Merge(sum.NState{S: a.S, C: a.C}, sum.NState{S: b.S, C: b.C})
	got := a.Add(b)
	if fbits(got.S) != fbits(m.S) || fbits(got.C) != fbits(m.C) {
		t.Error("CSum.Add != NeumaierMonoid.Merge")
	}
}

// Edge-case tests for CalibratedPolicy.nearest and clampLog10K
// (satellite: quantization must never let the cache pick what the
// legacy path couldn't).

func TestClampLog10KEdges(t *testing.T) {
	cases := []struct{ k, want float64 }{
		{0, 0},
		{-5, 0},
		{0.5, 0},
		{1, 0},
		{100, 2},
		{1e17, 17},
		{2e17, 17},
		{math.Inf(1), 17},
		{math.NaN(), 17},
	}
	for _, c := range cases {
		if got := clampLog10K(c.k); got != c.want {
			t.Errorf("clampLog10K(%g) = %g, want %g", c.k, got, c.want)
		}
	}
}

// TestCalibratedNearestEdgeCases drives nearest/Select through the
// degenerate corners: empty table, out-of-range and non-finite k, k=0
// data (all zeros), negative measured dynamic range, and cells whose
// coordinates make every distance NaN.
func TestCalibratedNearestEdgeCases(t *testing.T) {
	if _, ok := (&CalibratedPolicy{}).nearest(Profile{}); ok {
		t.Error("empty table claimed a neighbor")
	}
	cells := []grid.CellResult{{
		Spec:      grid.CellSpec{N: 512, Cond: 1, DynRange: 0},
		MeasuredK: 1, MeasuredDR: 0,
		RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: 1e-16},
	}, {
		Spec:      grid.CellSpec{N: 512, Cond: 1e8, DynRange: 16},
		MeasuredK: 1e8, MeasuredDR: -3, // negative dr: still a finite coordinate
		RelStdDev: map[sum.Algorithm]float64{sum.CompositeAlg: 1e-17},
	}}
	pol := NewCalibratedPolicy(cells, 1)
	req := Requirement{Tolerance: 1e-9}

	// k far beyond the table (full cancellation): must select, not panic,
	// and not hand back something cheaper than the nearest hostile cell.
	hostile := ProfileOf(gen.SumZeroSeries(512, 16, 75))
	if alg, _ := pol.Select(hostile, req); !alg.Valid() {
		t.Errorf("out-of-range k selected invalid %v", alg)
	}
	// k == 1 lower edge: all-zero data.
	if alg, _ := pol.Select(ProfileOf(make([]float64, 64)), req); !alg.Valid() {
		t.Errorf("all-zero profile selected invalid %v", alg)
	}
	// NaN condition estimate (overflowed Σ|x|): pre-fix this panicked
	// with an out-of-range index when every distance went NaN.
	nanProf := Profile{N: 4, HasNonzero: true, Pos: 4,
		SumAbs: CSum{S: math.Inf(1)}, Sum: CSum{S: math.Inf(1)}}
	if alg, _ := pol.Select(nanProf, req); !alg.Valid() {
		t.Errorf("NaN-cond profile selected invalid %v", alg)
	}
	// Degenerate cells (negative N makes log2 NaN): every distance is
	// NaN, nearest must decline, Select must fall back to the heuristic.
	bad := NewCalibratedPolicy([]grid.CellResult{{
		Spec: grid.CellSpec{N: -1}, MeasuredK: 1,
		RelStdDev: map[sum.Algorithm]float64{sum.StandardAlg: 0},
	}}, 1)
	p := ProfileOf([]float64{1, 2, 3})
	if _, ok := bad.nearest(p); ok {
		t.Error("all-NaN distances still claimed a neighbor")
	}
	if alg, _ := bad.Select(p, req); !alg.Valid() {
		t.Errorf("degenerate table selected invalid %v", alg)
	}
}

// TestFiniteExponentMatchesExponent pins the fast exponent decode used
// by the profiling loops against fpu.Exponent over normals, subnormals,
// and range extremes.
func TestFiniteExponentMatchesExponent(t *testing.T) {
	vals := []float64{1, -1, 0.5, 1.5, -3.75, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1.fffffffffffffp-1023, -0x1p-1040}
	r := fpu.NewRNG(76)
	for i := 0; i < 1000; i++ {
		vals = append(vals, math.Ldexp(1+r.Float64(), int(r.Uint64()%2100)-1060))
	}
	for _, v := range vals {
		if got, want := fpu.FiniteExponent(v), fpu.Exponent(v); got != want {
			t.Fatalf("FiniteExponent(%g) = %d, want %d", v, got, want)
		}
	}
}
