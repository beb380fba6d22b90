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
// algorithm's dynamic operator: Merge(a, b) reuses a's storage but
// leaves b unchanged (same Finalize bits; for BN the same wire
// encoding), and the merged result equals the typed monoid's LeftFold
// bit for bit. Leaves must lift element i to Leaf(xs[i])'s bits, each
// element owned on its own: an in-place Merge into one leaves its
// neighbours alone. The dst contract: FoldSlice and Leaves give the
// same bits whatever dst held — nil, a dirty state of the op's own type
// (whose storage is reused), or another operator's state (left alone).
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
			prev := acc
			acc = op.Merge(acc, b)
			if math.Float64bits(op.Finalize(b)) != bBits || !bytes.Equal(stateWire(b), bWire) {
				t.Fatalf("%v: Merge changed its right operand at element %d", a, i+1)
			}
			if acc != prev {
				t.Fatalf("%v: Merge did not reuse its left operand at element %d", a, i+1)
			}
		}
		if got, want := math.Float64bits(op.Finalize(acc)), typedFold(a, xs, nil); got != want {
			t.Errorf("%v: boxed LeftFold %x, typed LeftFold %x", a, got, want)
		}
		if len(op.Leaves(nil, nil)) != 0 {
			t.Errorf("%v: Leaves(nil, nil) is not empty", a)
		}
		// Leaves into nil, into its own dirty result (shorter, then
		// longer), and into another operator's states.
		foreign := sum.StandardAlg.Op()
		if a == sum.StandardAlg || a == sum.PairwiseAlg {
			foreign = sum.BinnedAlg.Op()
		}
		leaves := checkLeaves(t, a, op, nil, xs)
		leaves = checkLeaves(t, a, op, leaves, xs[:100])
		leaves = checkLeaves(t, a, op, leaves, xs)
		checkLeaves(t, a, op, append(foreign.Leaves(nil, xs[:7]), "not a state"), xs)
		// FoldSlice: two folded halves, the split point including the
		// empty slice, each half folded into every kind of dst.
		dirty := op.FoldSlice(nil, xs[5:9])
		other := foreign.FoldSlice(nil, xs[:3])
		otherBits := math.Float64bits(foreign.Finalize(other))
		for _, k := range []int{0, 1, 97, len(xs)} {
			lo, hi := xs[:k], xs[k:]
			l := op.FoldSlice(nil, lo)
			if got, want := math.Float64bits(op.Finalize(l)), math.Float64bits(op.Finalize(reduce.LeftFold(op, lo))); got != want {
				t.Errorf("%v split %d: FoldSlice %x, boxed LeftFold %x", a, k, got, want)
			}
			for _, dst := range []reduce.State{nil, dirty, other} {
				r := op.FoldSlice(dst, hi)
				if dst == dirty && r != dirty {
					t.Errorf("%v split %d: FoldSlice did not reuse its own-type dst", a, k)
				}
				dirty = r
				rBits, rWire := math.Float64bits(op.Finalize(r)), stateWire(r)
				if want := math.Float64bits(op.Finalize(op.FoldSlice(nil, hi))); rBits != want {
					t.Errorf("%v split %d: FoldSlice into %T gives %x, into nil %x", a, k, dst, rBits, want)
				}
				m := op.Merge(op.FoldSlice(nil, lo), r)
				if math.Float64bits(op.Finalize(r)) != rBits || !bytes.Equal(stateWire(r), rWire) {
					t.Errorf("%v split %d: Merge changed its right operand", a, k)
				}
				if got, want := math.Float64bits(op.Finalize(m)), typedFold(a, lo, hi); got != want {
					t.Errorf("%v split %d: merged %x, typed %x", a, k, got, want)
				}
			}
			if math.Float64bits(foreign.Finalize(other)) != otherBits {
				t.Fatalf("%v split %d: FoldSlice wrote into another operator's state", a, k)
			}
		}
	}
}

// checkLeaves lifts xs with op.Leaves(dst, xs) and checks that element
// i equals Leaf(xs[i]) and that merging into one element, in place,
// changes none of its neighbours. It returns the (merged-into) leaves.
func checkLeaves(t *testing.T, a sum.Algorithm, op reduce.Op, dst []reduce.State, xs []float64) []reduce.State {
	t.Helper()
	leaves := op.Leaves(dst, xs)
	if len(leaves) != len(xs) {
		t.Fatalf("%v: Leaves returned %d states for %d values", a, len(leaves), len(xs))
	}
	bits, wires := make([]uint64, len(xs)), make([][]byte, len(xs))
	for i, st := range leaves {
		leaf := op.Leaf(xs[i])
		bits[i], wires[i] = math.Float64bits(op.Finalize(st)), stateWire(st)
		if bits[i] != math.Float64bits(op.Finalize(leaf)) || !bytes.Equal(wires[i], stateWire(leaf)) {
			t.Fatalf("%v: Leaves into a %d-state dst: element %d differs from Leaf", a, len(dst), i)
		}
	}
	for _, i := range []int{0, 1, len(xs) / 2, len(xs) - 1} {
		leaves[i] = op.Merge(leaves[i], op.Leaf(0x1p20))
		for j, st := range leaves {
			if j != i && (math.Float64bits(op.Finalize(st)) != bits[j] || !bytes.Equal(stateWire(st), wires[j])) {
				t.Fatalf("%v: Leaves into a %d-state dst: Merge into element %d changed element %d", a, len(dst), i, j)
			}
		}
		bits[i], wires[i] = math.Float64bits(op.Finalize(leaves[i])), stateWire(leaves[i])
	}
	return leaves
}

// TestBNOpMergeFinalizeAllocs pins the in-place BN operator: merging two
// boxed states and finalizing one allocate nothing.
func TestBNOpMergeFinalizeAllocs(t *testing.T) {
	op := sum.BinnedAlg.Op()
	acc, b := op.FoldSlice(nil, []float64{1, 0x1p-60, -3}), op.Leaf(0x1p40)
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

// TestBNOpLeavesAllocs pins BN's slab lift: with a nil dst Leaves
// allocates the state slab and the box slice, two allocations for any
// vector length; lifting into the states it returned allocates nothing.
func TestBNOpLeavesAllocs(t *testing.T) {
	op := sum.BinnedAlg.Op()
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i) - 0x1p-30
	}
	var sink []reduce.State
	if n := testing.AllocsPerRun(100, func() { sink = op.Leaves(nil, xs) }); n != 2 {
		t.Errorf("BN Leaves(nil, 64): %v allocs/op, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = op.Leaves(sink, xs) }); n != 0 {
		t.Errorf("BN Leaves(reused, 64): %v allocs/op, want 0", n)
	}
	if got := op.Finalize(sink[63]); got != 63-0x1p-30 {
		t.Errorf("BN Leaves element 63 = %g", got)
	}
}
