package sum

import (
	"fmt"
	"math"

	"repro/internal/fpu"
	"repro/internal/reduce"
)

// Prerounded summation (PR) — a from-scratch implementation of the
// binned ("indexed") reproducible summation family of Demmel & Nguyen
// (ReproBLAS' dIAdd/dIAddd operators, which the paper uses).
//
// The float64 exponent range is partitioned into fixed, absolute bins of
// W bits. Each operand is pre-rounded into F chunks, one per bin,
// starting at the operand's own top bin: chunk j is the nearest multiple
// of the bin quantum 2^(j*W-1074), extracted with the Dekker
// round-to-multiple trick, and the residual below the operand's lowest
// chunk is discarded. Because
//
//   - the chunk decomposition of a value depends only on that value (and
//     the fixed bin grid), and
//   - chunks are exact multiples of the bin quantum, so accumulating
//     fewer than 2^(52-W) of them per bin is exact in float64,
//
// the retained bin contents — and therefore the final result — are
// bitwise identical for every reduction order and tree shape. Accuracy
// is governed by F*W: everything more than F*W bits below the largest
// operand's bin is dropped.
//
// Limitation (shared with ReproBLAS): operands with |x| > 2^1020 can
// produce chunks or bin totals that overflow float64, voiding the
// exactness guarantee near the very top of the exponent range.

// maxFold bounds the fold count so PRState can be a flat value type.
const maxFold = 8

// PRConfig parameterizes prerounded summation.
type PRConfig struct {
	// W is the bin width in bits (8..40). Capacity — the number of
	// operands that can be absorbed with an exactness guarantee — is
	// 2^(52-W).
	W int
	// F is the number of folds (bins kept per state), 1..maxFold.
	// Retained precision relative to the largest operand is ~F*W bits.
	F int
}

// DefaultPRConfig returns the configuration used throughout the paper
// reproduction: 26-bit bins, 4 folds — ~104 retained bits and a
// 2^26 (≈67M) operand capacity, comfortably covering the paper's
// 1M-element experiments.
func DefaultPRConfig() PRConfig { return PRConfig{W: 26, F: 4} }

// Validate checks the configuration bounds.
func (c PRConfig) Validate() error {
	if c.W < 8 || c.W > 40 {
		return fmt.Errorf("sum: PR bin width W=%d outside [8,40]", c.W)
	}
	if c.F < 1 || c.F > maxFold {
		return fmt.Errorf("sum: PR fold count F=%d outside [1,%d]", c.F, maxFold)
	}
	return nil
}

// Capacity returns the maximum number of operands a single reduction may
// absorb while preserving the exactness (and thus reproducibility)
// guarantee.
func (c PRConfig) Capacity() int64 { return 1 << uint(52-c.W) }

// Monoid returns the mergeable tree operator for this configuration.
func (c PRConfig) Monoid() PRMonoid {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return PRMonoid{cfg: c}
}

// PRState is the partial-reduction state of prerounded summation: a
// window of F bin accumulators anchored at the highest bin seen.
type PRState struct {
	// Top is the absolute index of the highest occupied bin; -1 when
	// the state is empty.
	Top int
	// Count is the number of operands absorbed (for capacity checks).
	Count int64
	// Acc[f] accumulates bin Top-f; every entry is an exact multiple of
	// that bin's quantum.
	Acc [maxFold]float64
}

// emptyPRState is the identity element of the PR merge.
func emptyPRState() PRState { return PRState{Top: -1} }

// topBin returns the absolute bin index of x's leading bit.
func topBin(x float64, w int) int {
	return (fpu.Exponent(x) + 1074) / w
}

// roundToMultipleSafe is fpu.RoundToMultiple with pre-scaling so the
// internal constant 1.5*2^(q+52) cannot overflow for bins near the top
// of the exponent range.
func roundToMultipleSafe(x float64, q int) (rounded, residual float64) {
	if q+52 > 1020 {
		const sh = 600
		r, res := fpu.RoundToMultiple(math.Ldexp(x, -sh), q-sh)
		return math.Ldexp(r, sh), math.Ldexp(res, sh)
	}
	return fpu.RoundToMultiple(x, q)
}

// deposit pre-rounds x, whose top bin is jtop, into its F chunks and
// adds the chunks that fall inside the state's current window. st.Top
// must already be >= jtop. The decomposition of x is independent of st,
// which is what makes the final bin contents order-independent.
func (c PRConfig) deposit(st *PRState, x float64, jtop int) {
	r := x
	for f := 0; f < c.F; f++ {
		j := jtop - f
		if j < 0 || r == 0 {
			break
		}
		idx := st.Top - j
		if idx >= c.F {
			break // this chunk and everything below is under the window
		}
		var chunk float64
		chunk, r = roundToMultipleSafe(r, j*c.W-1074)
		st.Acc[idx] += chunk
	}
	st.Count++
	if st.Count > c.Capacity() {
		panic(fmt.Sprintf("sum: prerounded capacity exceeded: %d operands > 2^(52-%d); use a smaller W", st.Count, c.W))
	}
}

// shiftWindow raises the state's window so its top bin becomes newTop,
// discarding accumulators that fall below the new window.
func (c PRConfig) shiftWindow(st *PRState, newTop int) {
	if st.Top < 0 {
		st.Top = newTop
		return
	}
	d := newTop - st.Top
	if d <= 0 {
		return
	}
	for f := c.F - 1; f >= 0; f-- {
		if f-d >= 0 {
			st.Acc[f] = st.Acc[f-d]
		} else {
			st.Acc[f] = 0
		}
	}
	st.Top = newTop
}

// add folds one operand into the state.
func (c PRConfig) add(st *PRState, x float64) {
	if x == 0 {
		st.Count++
		return
	}
	jt := topBin(x, c.W)
	if jt > st.Top {
		c.shiftWindow(st, jt)
	}
	c.deposit(st, x, jt)
}

// merge combines two states, aligning their windows to the higher top.
func (c PRConfig) merge(a, b PRState) PRState {
	if b.Top < 0 {
		a.Count += b.Count
		return a
	}
	if a.Top < 0 {
		b.Count += a.Count
		return b
	}
	if a.Top < b.Top {
		a, b = b, a
	}
	d := a.Top - b.Top
	for f := 0; f < c.F; f++ {
		if f+d < c.F {
			a.Acc[f+d] += b.Acc[f]
		}
	}
	a.Count += b.Count
	if a.Count > c.Capacity() {
		panic(fmt.Sprintf("sum: prerounded capacity exceeded in merge: %d operands > 2^(52-%d); use a smaller W", a.Count, c.W))
	}
	return a
}

// finalize folds the window accumulators, lowest bin first, with an
// exact compensated pass. The order is fixed, so the result is a pure
// function of the bin contents.
func (c PRConfig) finalize(st PRState) float64 {
	if st.Top < 0 {
		return 0
	}
	var s, comp float64
	for f := c.F - 1; f >= 0; f-- {
		t, e := fpu.TwoSum(s, st.Acc[f])
		s = t
		comp += e
	}
	return s + comp
}

// PRMonoid is the mergeable tree form of prerounded summation. Its
// Merge is exactly associative and commutative (all operations are
// exact), so reductions are bitwise reproducible under any tree.
type PRMonoid struct{ cfg PRConfig }

// Config returns the monoid's configuration.
func (m PRMonoid) Config() PRConfig { return m.cfg }

// Leaf lifts an operand into a single-value state.
func (m PRMonoid) Leaf(x float64) PRState {
	st := emptyPRState()
	m.cfg.add(&st, x)
	return st
}

// Merge combines two partial states exactly.
func (m PRMonoid) Merge(a, b PRState) PRState { return m.cfg.merge(a, b) }

// Finalize rounds the bin contents to a float64.
func (m PRMonoid) Finalize(s PRState) float64 { return m.cfg.finalize(s) }

// FoldSlice implements reduce.SliceFolder with the accumulator's add
// loop: every chunk and bin total is exact, so it is bit-identical to
// merging one Leaf per element.
func (m PRMonoid) FoldSlice(xs []float64) PRState {
	if len(xs) == 0 {
		return m.Leaf(0)
	}
	st := emptyPRState()
	for _, x := range xs {
		m.cfg.add(&st, x)
	}
	return st
}

// PreroundedAcc is the streaming form of PR.
type PreroundedAcc struct {
	cfg PRConfig
	st  PRState
}

// NewPreroundedAcc returns a streaming accumulator with the given
// configuration.
func NewPreroundedAcc(cfg PRConfig) *PreroundedAcc {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &PreroundedAcc{cfg: cfg, st: emptyPRState()}
}

// Add folds x into the binned state.
func (a *PreroundedAcc) Add(x float64) { a.cfg.add(&a.st, x) }

// Sum rounds the current bin contents to a float64.
func (a *PreroundedAcc) Sum() float64 { return a.cfg.finalize(a.st) }

// Reset restores the accumulator to empty.
func (a *PreroundedAcc) Reset() { a.st = emptyPRState() }

// State exposes the raw binned state for tree merging.
func (a *PreroundedAcc) State() PRState { return a.st }

// Prerounded computes the one-shot binned reproducible sum of xs with
// the default configuration.
func Prerounded(xs []float64) float64 { return PreroundedWith(DefaultPRConfig(), xs) }

// PreroundedWith computes the one-shot binned reproducible sum with an
// explicit configuration.
func PreroundedWith(cfg PRConfig, xs []float64) float64 {
	return reduce.Fold[PRState](cfg.Monoid(), xs)
}
