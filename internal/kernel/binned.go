package kernel

import "repro/internal/binned"

// BinnedRef folds xs with the per-element three-fold reference deposit
// loop — the pre-two-level path, kept as the oracle the fast path is
// pinned against (same represented value and Finalize bits; the
// in-memory bin decomposition may differ).
func BinnedRef(xs []float64) binned.State {
	var st binned.State
	st.AddSliceRef(xs)
	return st
}
