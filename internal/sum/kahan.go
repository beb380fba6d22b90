package sum

import "repro/internal/kernel"

// Kahan computes the classic compensated sum (K): the estimated rounding
// error of each partial sum is folded back into the next addend. The
// final pending correction is dropped, exactly as in Kahan's original
// formulation — that (together with the uncompensated case where the
// addend exceeds the running sum in magnitude) is what separates K from
// the stronger CP operator.
func Kahan(xs []float64) float64 {
	var s, c float64 // c = running negative correction to subtract
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// KahanAcc is the streaming form of K.
type KahanAcc struct{ s, c float64 }

// Add folds x into the running compensated sum.
func (a *KahanAcc) Add(x float64) {
	y := x - a.c
	t := a.s + y
	a.c = (t - a.s) - y
	a.s = t
}

// Sum returns the current sum (pending correction dropped, per Kahan).
func (a *KahanAcc) Sum() float64 { return a.s }

// Reset restores the accumulator to zero.
func (a *KahanAcc) Reset() { *a = KahanAcc{} }

// State exposes the (sum, correction) pair for tree merging. Streaming
// accumulation is bitwise-identical to folding the same values through
// KahanMonoid, so the state can seed a merge tree directly.
func (a *KahanAcc) State() KState { return KState{S: a.s, C: a.c} }

// KState is the partial-reduction state of the Kahan tree operator:
// the partial sum s and the pending correction c (to be subtracted).
type KState struct{ S, C float64 }

// KahanMonoid is the mergeable tree form of K, mirroring the custom
// MPI_Reduce operator of Robey et al. that the paper uses: corrections
// travel with the partial sums and are folded into the next combination.
type KahanMonoid struct{}

// Leaf lifts an operand.
func (KahanMonoid) Leaf(x float64) KState { return KState{S: x} }

// Merge combines two compensated partial sums: the incoming partial sum
// is pre-corrected by both pending corrections, then added with a
// Kahan-style error recovery step.
func (KahanMonoid) Merge(a, b KState) KState {
	y := b.S - (a.C + b.C)
	t := a.S + y
	c := (t - a.S) - y
	return KState{S: t, C: c}
}

// Finalize returns the root sum; the residual correction is dropped,
// matching Kahan's classic formulation.
func (KahanMonoid) Finalize(s KState) float64 { return s.S }

// FoldSlice implements reduce.SliceFolder: the devirtualized batch loop,
// bit-identical to the reference left-to-right fold.
func (KahanMonoid) FoldSlice(xs []float64) KState {
	s, c := kernel.Kahan(xs)
	return KState{S: s, C: c}
}
