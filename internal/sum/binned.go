package sum

import (
	"repro/internal/binned"
	"repro/internal/reduce"
)

// This file adapts internal/binned — the single-pass binned (indexed)
// reproducible engine, the ladder's fast-reproducible middle rung — to
// the sum package's algorithm forms (one-shot, streaming Accumulator,
// mergeable Monoid, and the dynamic reduce.Op). The numerical machinery
// and the order-invariance argument live in the binned package.

// Binned computes the one-shot binned reproducible sum of xs: bitwise
// identical for every permutation, chunking, and reduction tree over
// the same operands, at a small constant factor over Standard.
func Binned(xs []float64) float64 { return binned.Sum(xs) }

// BinnedAcc is the streaming accumulator form of the binned engine.
// The zero value is ready to use.
type BinnedAcc struct {
	st binned.State
}

// Add folds one value into the accumulator.
func (a *BinnedAcc) Add(x float64) { a.st.Add(x) }

// AddSlice folds a whole slice with the batch kernel (bit-identical to
// element-wise Add, with the carry bookkeeping hoisted per batch).
func (a *BinnedAcc) AddSlice(xs []float64) { a.st.AddSlice(xs) }

// Sum rounds the current state to float64. It does not modify the
// accumulator; more values may be added afterwards.
func (a *BinnedAcc) Sum() float64 { return a.st.Finalize() }

// Reset restores the accumulator to zero.
func (a *BinnedAcc) Reset() { a.st.Reset() }

// State returns the current mergeable partial state.
func (a *BinnedAcc) State() binned.State { return a.st }

// BNMonoid is the mergeable reduction operator of the binned engine.
// Partial states combine exactly in any tree shape; FoldSlice runs the
// batch kernel and is bit-identical to the generic leaf/merge fold.
type BNMonoid struct{}

// Leaf lifts one operand into a partial state.
func (BNMonoid) Leaf(x float64) binned.State {
	var st binned.State
	st.Add(x)
	return st
}

// Merge combines two partial states, exactly.
func (BNMonoid) Merge(a, b binned.State) binned.State {
	a.Merge(&b)
	return a
}

// Finalize rounds a partial state to float64.
func (BNMonoid) Finalize(st binned.State) float64 { return st.Finalize() }

// FoldSlice implements reduce.SliceFolder with the batch deposit
// kernel.
func (BNMonoid) FoldSlice(xs []float64) binned.State {
	var st binned.State
	st.AddSlice(xs)
	return st
}

var _ reduce.SliceFolder[binned.State] = BNMonoid{}

// bnOp is BN's dynamic reduce.Op. It boxes *binned.State rather than
// the 584-byte value reduce.Boxed(BNMonoid{}) would box: Leaf and
// FoldSlice allocate the one state, Leaves one slab for the whole
// vector, Merge folds its right operand into the left one in place and
// returns it, and Finalize reads through the pointer — so the
// collectives' merges neither allocate nor copy.
type bnOp struct{}

func (bnOp) Name() string { return BinnedAlg.String() }

func (bnOp) Leaf(x float64) reduce.State {
	st := new(binned.State)
	st.Add(x)
	return st
}

// Merge reuses a's storage, as reduce.Op.Merge allows; b is only read.
func (bnOp) Merge(a, b reduce.State) reduce.State {
	st := a.(*binned.State)
	st.Merge(b.(*binned.State))
	return st
}

// Leaves lifts xs into one slab of states: two allocations per vector
// instead of one per element. Each element is a distinct state, so an
// in-place Merge into one leaves its neighbours alone.
func (bnOp) Leaves(xs []float64) []reduce.State {
	slab := make([]binned.State, len(xs))
	out := make([]reduce.State, len(xs))
	for i, x := range xs {
		slab[i].Add(x)
		out[i] = &slab[i]
	}
	return out
}

func (bnOp) Finalize(s reduce.State) float64 { return s.(*binned.State).Finalize() }

// FoldSlice runs the batch deposit kernel into one fresh state.
func (o bnOp) FoldSlice(xs []float64) reduce.State {
	if len(xs) == 0 {
		return o.Leaf(0) // reduce.LeftFold's empty fold
	}
	st := new(binned.State)
	st.AddSlice(xs)
	return st
}
