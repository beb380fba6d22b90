package sum_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/binned"
	"repro/internal/fpu"
	"repro/internal/reduce"
	"repro/internal/sum"
	"repro/internal/wire"
)

// typedFold is the reference for a's dynamic operator: the typed
// monoid's LeftFold of lo merged with its LeftFold of hi, finalized.
// With hi == nil it is the LeftFold of lo alone.
func typedFold(a sum.Algorithm, lo, hi []float64) uint64 {
	switch a {
	case sum.StandardAlg, sum.PairwiseAlg:
		return typedMerge[float64](sum.STMonoid{}, lo, hi)
	case sum.KahanAlg:
		return typedMerge(sum.KahanMonoid{}, lo, hi)
	case sum.NeumaierAlg:
		return typedMerge(sum.NeumaierMonoid{}, lo, hi)
	case sum.CompositeAlg:
		return typedMerge(sum.CPMonoid{}, lo, hi)
	case sum.PreroundedAlg:
		return typedMerge(sum.DefaultPRConfig().Monoid(), lo, hi)
	case sum.BinnedAlg:
		return typedMerge(sum.BNMonoid{}, lo, hi)
	}
	panic("no typed monoid for " + a.String())
}

func typedMerge[S any](m reduce.Monoid[S], lo, hi []float64) uint64 {
	st := reduce.LeftFold(m, lo)
	if hi != nil {
		st = m.Merge(st, reduce.LeftFold(m, hi))
	}
	return math.Float64bits(m.Finalize(st))
}

// stateWire is a BN state's wire encoding, or nil for other operators.
func stateWire(s reduce.State) []byte {
	st, ok := s.(*binned.State)
	if !ok {
		return nil
	}
	snap := st.Snapshot()
	return wire.AppendBinned(nil, &snap)
}

// TestOpMergeOwnership pins the reduce.Op.Merge ownership rule for every
// algorithm's dynamic operator: Merge(a, b) may reuse a but leaves b
// unchanged (same Finalize bits; for BN the same wire encoding), and
// the merged result equals the typed monoid's LeftFold bit for bit.
// Leaves must lift element i to Leaf(xs[i])'s bits, each element owned
// on its own: an in-place Merge into one leaves its neighbours alone.
func TestOpMergeOwnership(t *testing.T) {
	rng := fpu.NewRNG(20)
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30)
	}
	for _, a := range sum.Algorithms {
		op := a.Op()
		// Per element: the boxed LeftFold, checking every right operand.
		acc := op.Leaf(xs[0])
		for i, x := range xs[1:] {
			b := op.Leaf(x)
			bBits, bWire := math.Float64bits(op.Finalize(b)), stateWire(b)
			acc = op.Merge(acc, b)
			if math.Float64bits(op.Finalize(b)) != bBits || !bytes.Equal(stateWire(b), bWire) {
				t.Fatalf("%v: Merge changed its right operand at element %d", a, i+1)
			}
		}
		if got, want := math.Float64bits(op.Finalize(acc)), typedFold(a, xs, nil); got != want {
			t.Errorf("%v: boxed LeftFold %x, typed LeftFold %x", a, got, want)
		}
		// Leaves: element i is Leaf(xs[i]); merging into one element
		// changes none of its neighbours.
		if len(op.Leaves(nil)) != 0 {
			t.Errorf("%v: Leaves(nil) is not empty", a)
		}
		leaves := op.Leaves(xs)
		if len(leaves) != len(xs) {
			t.Fatalf("%v: Leaves returned %d states for %d values", a, len(leaves), len(xs))
		}
		bits, wires := make([]uint64, len(xs)), make([][]byte, len(xs))
		for i, st := range leaves {
			leaf := op.Leaf(xs[i])
			bits[i], wires[i] = math.Float64bits(op.Finalize(st)), stateWire(st)
			if bits[i] != math.Float64bits(op.Finalize(leaf)) || !bytes.Equal(wires[i], stateWire(leaf)) {
				t.Errorf("%v: Leaves element %d differs from Leaf", a, i)
			}
		}
		for _, i := range []int{0, 1, 120, len(xs) - 1} {
			leaves[i] = op.Merge(leaves[i], op.Leaf(0x1p20))
			for j, st := range leaves {
				if j != i && (math.Float64bits(op.Finalize(st)) != bits[j] || !bytes.Equal(stateWire(st), wires[j])) {
					t.Fatalf("%v: Merge into Leaves element %d changed element %d", a, i, j)
				}
			}
			bits[i], wires[i] = math.Float64bits(op.Finalize(leaves[i])), stateWire(leaves[i])
		}
		// Two folded halves, the split point including the empty slice.
		for _, k := range []int{0, 1, 97, len(xs)} {
			lo, hi := xs[:k], xs[k:]
			l, r := op.FoldSlice(lo), op.FoldSlice(hi)
			rBits, rWire := math.Float64bits(op.Finalize(r)), stateWire(r)
			m := op.Merge(l, r)
			if math.Float64bits(op.Finalize(r)) != rBits || !bytes.Equal(stateWire(r), rWire) {
				t.Errorf("%v split %d: Merge changed its right operand", a, k)
			}
			if got, want := math.Float64bits(op.Finalize(m)), typedFold(a, lo, hi); got != want {
				t.Errorf("%v split %d: merged %x, typed %x", a, k, got, want)
			}
		}
	}
}

// TestBNOpMergeFinalizeAllocs pins the in-place BN operator: merging two
// boxed states and finalizing one allocate nothing.
func TestBNOpMergeFinalizeAllocs(t *testing.T) {
	op := sum.BinnedAlg.Op()
	acc, b := op.FoldSlice([]float64{1, 0x1p-60, -3}), op.Leaf(0x1p40)
	if n := testing.AllocsPerRun(100, func() { acc = op.Merge(acc, b) }); n != 0 {
		t.Errorf("BN Merge: %v allocs/op, want 0", n)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink = op.Finalize(acc) }); n != 0 {
		t.Errorf("BN Finalize: %v allocs/op, want 0", n)
	}
	if want := 1 - 3 + 0x1p-60 + 101*0x1p40; sink != want {
		t.Errorf("BN after 101 merges = %g, want %g", sink, want)
	}
}

// TestBNOpLeavesAllocs pins BN's slab lift: Leaves allocates the state
// slab and the box slice, two allocations for any vector length.
func TestBNOpLeavesAllocs(t *testing.T) {
	op := sum.BinnedAlg.Op()
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) - 0x1p-30
	}
	var sink []reduce.State
	if n := testing.AllocsPerRun(100, func() { sink = op.Leaves(xs) }); n != 2 {
		t.Errorf("BN Leaves(64): %v allocs/op, want 2", n)
	}
	if got := op.Finalize(sink[63]); got != 63-0x1p-30 {
		t.Errorf("BN Leaves element 63 = %g", got)
	}
}
