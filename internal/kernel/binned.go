package kernel

import "repro/internal/binned"

// Binned folds xs into a fresh binned reproducible partial state with
// the two-level accumulate-direct batch kernel: eligible elements
// plain-add into an anchored quad of register-resident level-0
// partials (the AVX2 group engine where the CPU supports it, the
// portable four-sublane kernel otherwise), flushed exactly into the
// K-fold bins on a fixed schedule. Every operation is exact, so the
// result is bit-identical to the element-wise accumulator and to the
// reference deposit loop (BinnedRef) for any input — engine and batch
// boundaries are machine-local speed knobs outside the plan.
func Binned(xs []float64) binned.State {
	var st binned.State
	st.AddSlice(xs)
	return st
}

// BinnedRef folds xs with the per-element three-fold reference deposit
// loop — the pre-two-level path, kept as the oracle the fast path is
// pinned against (same represented value and Finalize bits; the
// in-memory bin decomposition may differ).
func BinnedRef(xs []float64) binned.State {
	var st binned.State
	st.AddSliceRef(xs)
	return st
}
