package binned

import (
	"fmt"
	"math"
)

// StateSlots is the length of a State's bin array (66 bins spanning the
// float64 exponent range plus Folds-1 pad slots below bin 0), exported
// so serializers can carry the array without reflecting over private
// fields.
const StateSlots = numSlots

// MaxPend is the exclusive upper bound on a live State's pending-deposit
// counter: the fixed carry schedule renormalizes whenever pend reaches
// renormEvery, so every state observable through the public API holds
// pend in [0, MaxPend). Serializers use it to reject counters no real
// state can carry (which would void the exact-accumulation headroom
// bounds on subsequent deposits).
const MaxPend = renormEvery

// Snapshot is the complete serializable content of a State, with every
// field exported. It exists for the wire layer: Snapshot/Restore are
// the stable accessor pair, so external encodings never reflect over
// State's private fields and the package is free to keep its in-memory
// layout private.
//
// A restored state is field-for-field the state that was snapshotted —
// including the renormalization counter Pend, which is part of the
// exactness bookkeeping (it bounds how many more deposits may land
// before a carry pass must run), and the NaN/±Inf tallies, which carry
// IEEE semantics order-invariantly. Restore therefore resumes
// depositing and merging bitwise-identically to the never-serialized
// original.
type Snapshot struct {
	// Bins is the bin array: Bins[j+2] is the bin-j total, an exact
	// multiple of the bin's quantum (scaled by 2^-512 for bins >= 64).
	Bins [StateSlots]float64
	// Count is the number of operands absorbed.
	Count int64
	// Pend counts deposits since the last renormalization pass.
	Pend int64
	// PosInf and NegInf tally ±Inf operands; NaN records any NaN
	// operand.
	PosInf, NegInf int64
	NaN            bool
}

// Snapshot returns the complete state content. It does not modify st.
func (st *State) Snapshot() Snapshot {
	return Snapshot{
		Bins:   st.bins,
		Count:  st.count,
		Pend:   st.pend,
		PosInf: st.posInf,
		NegInf: st.negInf,
		NaN:    st.nan,
	}
}

// Validate checks the invariants every API-produced state satisfies:
// non-negative counters, a pending-deposit count inside the carry
// schedule's budget, and bins that the deposit, carry and merge
// operations can produce. A snapshot violating them cannot have come
// from Snapshot on a live state, and restoring it would void the
// exactness argument, so Restore rejects it:
//
//   - a forged Pend defers renormalization past the 2^53-quanta
//     headroom;
//   - a non-finite bin turns the state's value into NaN;
//   - a bin off its quantum's grid, or above its headroom bound, makes
//     later deposits and merges round, so Finalize would depend on the
//     order they arrive in.
//
// Every bin j must be an exact multiple m_j of its quantum q_j (scaled
// by 2^-512 for bins >= 64) with |m_j| <= 2^31 + Pend·2^32 — the bound
// the carry schedule keeps between renormalizations — except the top
// bin, which has no carry target and only needs |m_j| < 2^53. The pad
// slots below bin 0 are always zero.
func (s *Snapshot) Validate() error {
	_, _, err := s.validate()
	return err
}

// validate is Validate, also returning the tight live window [lo, top)
// of the bins it scans (0, 0 when every bin is zero).
func (s *Snapshot) validate() (lo, top uint8, err error) {
	if s.Count < 0 {
		return 0, 0, fmt.Errorf("binned: negative operand count %d", s.Count)
	}
	if s.Pend < 0 || s.Pend >= MaxPend {
		return 0, 0, fmt.Errorf("binned: pending-deposit count %d outside [0, %d)", s.Pend, int64(MaxPend))
	}
	if s.PosInf < 0 || s.NegInf < 0 {
		return 0, 0, fmt.Errorf("binned: negative infinity tally %d/%d", s.PosInf, s.NegInf)
	}
	if s.PosInf+s.NegInf > s.Count {
		return 0, 0, fmt.Errorf("binned: infinity tallies %d exceed operand count %d", s.PosInf+s.NegInf, s.Count)
	}
	for i := 0; i < pad; i++ {
		if s.Bins[i] != 0 {
			return 0, 0, fmt.Errorf("binned: pad slot %d holds %v", i, s.Bins[i])
		}
	}
	limit := float64(1<<31 + s.Pend<<32)
	for j := 0; j < numBins; j++ {
		v := s.Bins[j+pad]
		if v == 0 {
			continue
		}
		if top == 0 {
			lo = uint8(j + pad)
		}
		top = uint8(j + pad + 1)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("binned: bin %d holds %v", j, v)
		}
		// Scaling by the reciprocal quantum is exact whenever |v| is at
		// least one quantum, so m is then the exact quantum count; a
		// smaller nonzero v is off the grid and gives |m| < 1.
		f := &quantumScale[j]
		m := v * f[0] * f[1]
		if math.Abs(m) < 1 || m != math.Trunc(m) {
			return 0, 0, fmt.Errorf("binned: bin %d value %v is not a multiple of its quantum", j, v)
		}
		if j == numBins-1 {
			if math.Abs(m) >= 1<<53 {
				return 0, 0, fmt.Errorf("binned: top bin holds %v quanta, want < 2^53", m)
			}
		} else if math.Abs(m) > limit {
			return 0, 0, fmt.Errorf("binned: bin %d holds %v quanta, above the bound %v for Pend %d", j, m, limit, s.Pend)
		}
	}
	return lo, top, nil
}

// Restore reconstructs the snapshotted State. The result is
// field-for-field the snapshotted state, except for the live bin
// window, which Restore derives tight from the bins. The window only
// bounds where the nonzero bins lie, so the restored state's
// subsequent deposits, merges, and Finalize are bitwise-identical to
// the original's. Invalid snapshots (see Validate) are rejected.
func Restore(s Snapshot) (State, error) {
	lo, top, err := s.validate()
	if err != nil {
		return State{}, err
	}
	return State{
		bins:   s.Bins,
		count:  s.Count,
		pend:   s.Pend,
		posInf: s.PosInf,
		negInf: s.NegInf,
		nan:    s.NaN,
		lo:     lo,
		top:    top,
	}, nil
}
