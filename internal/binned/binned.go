// Package binned implements single-pass binned reproducible summation —
// the fast-reproducible middle rung of the cost ladder, after Demmel &
// Nguyen's indexed (binned) accumulation.
//
// The float64 exponent range is partitioned into fixed, absolute bins of
// BinWidth = 32 bits: bin j holds multiples of the quantum q_j =
// 2^(32j-1074). Each operand is split into Folds = 3 chunks, one per
// bin, starting at the operand's own top bin (located by one shift of
// the raw exponent field); chunk f is extracted with the Dekker
// round-to-multiple trick. The third chunk's grid, q_{top-2}, is at
// least 2^12 finer than the operand's own ulp (a window spans 32
// exponents, the significand has 52 fraction bits), so the residual
// below the lowest chunk is exactly zero: the deposit retains every
// operand exactly. Unlike the windowed prerounded operator
// (sum.PRConfig), the bin grid spans the whole exponent range, so
//
//   - the deposited chunks of an operand are a pure function of x
//     alone (never of accumulator state, a running max, or a window),
//     and sum exactly to x,
//   - every deposit, carry, and merge is an exact floating-point
//     operation (chunks are exact multiples of their bin's quantum and
//     bin magnitudes are kept under 2^53 quanta by a fixed
//     renormalization schedule), and
//   - Finalize rounds the exact represented value Σ x_i by exact
//     integer arithmetic over the live bin window only (typically 2–6
//     of the 66 bins), see State.Finalize.
//
// The represented value is therefore the same real number for every
// deposit order, chunking, merge tree, worker count, and batch kernel
// — and Finalize is a pure function of that value — so the result is
// bitwise identical under all of them. Renormalization timing (which
// moves bits between bins but never changes the represented value)
// cannot affect the result, which is what frees the carry schedule to
// be a pure amortized-cost knob instead of part of the plan.
//
// Accuracy: because every deposit is exact, Finalize returns the
// correctly rounded (nearest, ties to even) float64 of the exact sum
// Σ x_i — the same bits as the exact superaccumulator — independent of
// condition number, at a small constant factor over the plain ST loop.
// (The earlier design note bounded a "dropped residual" at < 2^-65|x|;
// the residual is in fact identically zero, see DESIGN.md.)
//
// Deposits default to the two-level accumulate-direct batch kernel
// (twolevel.go): register-resident level-0 partials over an anchored
// two-window range, flushed exactly into the bins on a fixed schedule.
// Exactness makes the kernel choice — reference per-element loop,
// portable groups, or the AVX2 engine — invisible in the Finalize
// bits; AddSliceRef keeps the per-element reference path as the
// oracle.
//
// Capacity is unbounded: a renormalization pass runs every renormEvery
// deposits (and on demand at merges), restoring per-bin headroom, so
// any number of operands can be absorbed — unlike the windowed PR
// operator's 2^(52-W) cap.
//
// Top-of-range handling: bins 64 and 65 (operand magnitudes >= 2^974)
// are stored scaled by 2^-512 so their totals cannot overflow float64;
// Finalize reads their quantum counts at their true weight like any
// other bin's. The exactness guarantee there holds up to ~2^34 such
// huge operands — beyond that the top bin's total can exceed 2^53 of
// its quantum (strictly wider coverage than the windowed PR operator,
// which voids its guarantee above 2^1020 for any count). NaN and ±Inf operands are tallied outside the bins
// and reproduce IEEE semantics order-invariantly: any NaN, or both Inf
// signs, yields NaN; otherwise an Inf sign wins; a represented value
// beyond the float64 range rounds to ±Inf.
package binned

import (
	"math"
	"math/bits"
)

const (
	// BinWidth is the bin width in bits. 32 makes the exponent-to-bin
	// map a single shift of the raw exponent field.
	BinWidth = 32
	// Folds is the number of chunks each operand deposits (its own top
	// bin and the two below), retaining ~64 significant bits per
	// operand.
	Folds = 3

	// binShift is log2(BinWidth).
	binShift = 5
	// numBins covers bin indices 0..65: (1023+1074)/32 = 65 is the top
	// bin of the largest finite float64.
	numBins = 66
	// pad adds Folds-1 dead slots below bin 0 so the deposit loop never
	// indexes negative bins (chunks there are always exactly zero: every
	// value with top bin <= 1 is a multiple of q_0 = 2^-1074).
	pad = Folds - 1
	// numSlots is the length of the bin array; slot(j) = j + pad.
	numSlots = numBins + pad

	// hiBin is the first scaled bin: bins hiBin.. are stored multiplied
	// by 2^-scaleSH so their totals stay far from float64 overflow.
	hiBin = 64
	// hiEF is the raw-exponent-field threshold routing deposits to the
	// scaled slow path: ef >= hiEF means top bin >= hiBin (|x| >= 2^974)
	// or a non-finite value (ef == 0x7ff).
	hiEF = hiBin<<binShift - 51
	// scaleSH is the power-of-two scaling of the hi bins.
	scaleSH = 512

	// renormEvery is the fixed carry schedule: after this many deposits
	// a renormalization pass restores per-bin headroom. The bound keeps
	// every bin total under 2^53 quanta (the exact-accumulation limit):
	// a renormalized bin holds at most 2^31 quanta and each deposit adds
	// at most 2^32, so 2^31 + renormEvery*2^32 <= 2^53 requires
	// renormEvery <= 2^20 (with 2x margin left for merges, see Merge).
	renormEvery = 1 << 20
)

// bigTab[s] is the Dekker rounding constant 1.5*2^(q+52) for the bin at
// slot s (quantum exponent q = (s-pad)*BinWidth - 1074). Pad slots hold
// 0 — they are only ever "rounded" against an exactly zero residual.
// Slots hiBin+pad.. hold the scaled constants (q reduced by scaleSH).
var bigTab [numSlots]float64

// quantumScale[j] is a pair of powers of two whose product is the
// reciprocal of bin j's stored quantum (q_j, or 2^-scaleSH q_j for the
// scaled bins): bin j's total times both factors is exactly its integer
// multiple m_j. One factor alone would overflow for j < 2
// (1/q_0 = 2^1074); each half keeps every intermediate normal.
var quantumScale [numBins][2]float64

func init() {
	for j := 0; j < numBins; j++ {
		q := j*BinWidth - 1074
		if j >= hiBin {
			q -= scaleSH
		}
		bigTab[j+pad] = math.Ldexp(1.5, q+52)
		quantumScale[j] = [2]float64{math.Ldexp(1, -q/2), math.Ldexp(1, q/2-q)}
	}
}

// State is a binned partial-reduction state. The zero value is an empty
// accumulator ready to use. States merge exactly (Merge) and finalize
// to a float64 that is bitwise identical for every way of splitting and
// ordering the same multiset of operands.
type State struct {
	// bins[j+pad] is the bin-j total: an exact multiple of q_j
	// (2^-scaleSH q_j for j >= hiBin) of magnitude < 2^53 quanta.
	bins [numSlots]float64
	// count is the number of operands absorbed (including zeros and
	// non-finite values); it never influences Finalize.
	count int64
	// pend counts deposits since the last renormalization.
	pend int64
	// posInf/negInf tally ±Inf operands; nan records any NaN operand.
	posInf, negInf int64
	nan            bool
	// lo and top bound the live window: every slot outside [lo, top)
	// is exactly zero, and top == 0 means no slot was ever written
	// (lo is then 0 too). Merge, renorm, Reset and Finalize touch only
	// the window, typically 2–6 of the 68 slots. The two bytes sit in
	// the padding after nan.
	lo, top uint8
}

// Count returns the number of operands absorbed.
func (st *State) Count() int64 { return st.count }

// Reset restores st to the empty state, clearing only the live window.
func (st *State) Reset() {
	clear(st.bins[st.lo:st.top])
	st.count, st.pend, st.posInf, st.negInf = 0, 0, 0, 0
	st.nan, st.lo, st.top = false, 0, 0
}

// widen extends the live window over slots [lo, top); an empty range
// (lo >= top) leaves it as it is.
func (st *State) widen(lo, top uint) {
	if lo >= top {
		return
	}
	if st.top == 0 || lo < uint(st.lo) {
		st.lo = uint8(lo)
	}
	if top > uint(st.top) {
		st.top = uint8(top)
	}
}

// Add folds one operand into the state.
func (st *State) Add(x float64) {
	ef := int(math.Float64bits(x) >> 52 & 0x7ff)
	if ef >= hiEF {
		st.addSlow(x, ef)
		return
	}
	s := uint(ef+51) >> binShift
	b0 := bigTab[s+pad]
	c0 := (b0 + x) - b0
	r := x - c0
	st.bins[s+pad] += c0
	b1 := bigTab[s+pad-1]
	c1 := (b1 + r) - b1
	r -= c1
	st.bins[s+pad-1] += c1
	b2 := bigTab[s+pad-2]
	c2 := (b2 + r) - b2
	st.bins[s+pad-2] += c2
	st.widen(s, s+Folds)
	st.count++
	st.pend++
	if st.pend >= renormEvery {
		st.renorm()
	}
}

// addSlow handles the rare top-of-range and non-finite operands
// (ef >= hiEF) through slowNoCount, with Add's bookkeeping: every
// operand counts, but only a deposit brings the carry schedule closer.
func (st *State) addSlow(x float64, ef int) {
	st.count++
	lo, top := st.slowNoCount(x, ef)
	if lo >= top {
		return
	}
	st.widen(lo, top)
	st.pend++
	if st.pend >= renormEvery {
		st.renorm()
	}
}

// renorm runs one carry pass, bottom bin up: each bin's total is
// rounded to a multiple of the next bin's quantum, the rounded part
// carries up, and the exact residual (at most 2^31 quanta) stays. Every
// operation is exact, so the represented value never changes — which is
// why the carry schedule is not part of the reproducibility contract.
//
// Only the live window carries: the slots outside it are zero. A carry
// reaches at most one slot above the window, which then grows by it.
func (st *State) renorm() {
	st.pend = 0
	if st.top == 0 {
		return
	}
	// Unscaled bins 0..hiBin-2 carry within the unscaled domain. The
	// deposit constant of bin j+1 is exactly the rounding constant for
	// "multiple of q_{j+1}".
	for s := int(st.lo); s < min(int(st.top), hiBin+pad-1); s++ {
		v := st.bins[s]
		if v == 0 {
			continue
		}
		big := bigTab[s+1]
		c := (big + v) - big
		if c != 0 {
			st.bins[s] = v - c
			st.bins[s+1] += c
		}
	}
	// Bin hiBin-1 carries into the scaled domain: round in the
	// 2^-scaleSH frame, keep the residual unscaled.
	if v := st.bins[hiBin+pad-1]; v != 0 {
		vs := v * (0x1p-512) // exact: v is a multiple of q_63 = 2^942
		big := bigTab[hiBin+pad]
		c := (big + vs) - big
		if c != 0 {
			st.bins[hiBin+pad-1] = (vs - c) * (0x1p512)
			st.bins[hiBin+pad] += c
		}
	}
	// Scaled bin hiBin carries to the top bin, all in the scaled frame.
	if v := st.bins[hiBin+pad]; v != 0 {
		big := bigTab[hiBin+pad+1]
		c := (big + v) - big
		if c != 0 {
			st.bins[hiBin+pad] = v - c
			st.bins[hiBin+pad+1] += c
		}
	}
	// The top bin has no carry target; its headroom bounds are
	// documented in the package comment.
	if t := st.top; t < numSlots && st.bins[t] != 0 {
		st.top = t + 1
	}
}

// Merge folds o into st, exactly, adding only o's live window. o is
// left unchanged. The result represents exactly the sum of the two
// represented values, so merging in any order or tree shape yields the
// same Finalize bits.
func (st *State) Merge(o *State) {
	lo, top := o.lo, o.top
	b := st.bins[lo:top]
	for i, v := range o.bins[lo:top] {
		b[i] += v
	}
	st.widen(uint(lo), uint(top))
	st.count += o.count
	st.posInf += o.posInf
	st.negInf += o.negInf
	st.nan = st.nan || o.nan
	// Two renormalized-plus-deposits states add to at most
	// 2^32 + (pendA+pendB)*2^32 quanta; the +1 folds the doubled
	// residual term back into the standard pend bound.
	st.pend += o.pend + 1
	if st.pend >= renormEvery {
		st.renorm()
	}
}

// Finalize rounds the represented value to the nearest float64 (ties to
// even). It does not modify st. NaN and ±Inf tallies reproduce IEEE
// semantics: any NaN or both Inf signs give NaN, otherwise a present
// Inf sign wins; a represented value beyond the float64 range rounds to
// ±Inf.
//
// Bin j holds m_j·q_j with |m_j| < 2^53 and q_j = 2^(32j-1074), so the
// represented value is the base-2^32 integer Σ m_j·2^(32j) times
// 2^-1074, with m_j as its (unnormalized) limb j. Finalize carries the
// limbs of the live window lo..hi into digits, negates a negative
// total, and rounds the leading 64 bits with a sticky bit below them:
// its cost is that of the window, not of the 66-bin range. The trim
// scan for the window's nonzero ends starts from the kept window.
func (st *State) Finalize() float64 {
	if st.nan || (st.posInf > 0 && st.negInf > 0) {
		return math.NaN()
	}
	if st.posInf > 0 {
		return math.Inf(1)
	}
	if st.negInf > 0 {
		return math.Inf(-1)
	}
	lo, hi := int(st.lo), int(st.top)-1
	for lo <= hi && st.bins[lo] == 0 {
		lo++
	}
	if lo > hi {
		return 0
	}
	for st.bins[hi] == 0 {
		hi--
	}
	// d[2+j-jlo] is digit j of the window's integer; d[0] and d[1] are
	// zero digits below it, so the rounding step may read two digits
	// under the leading one. The last digit takes the final carry.
	const mask = 1<<BinWidth - 1
	var d [numBins + 3]uint64
	var c int64
	k := 2
	for s := lo; s <= hi; s++ {
		f := &quantumScale[s-pad]
		t := int64(st.bins[s]*f[0]*f[1]) + c
		d[k] = uint64(t) & mask
		c = t >> BinWidth
		k++
	}
	// |c| < 2^22 here: the limb above the window holds it whole, and
	// its sign is the sign of the represented value.
	d[k] = uint64(c) & mask
	neg := c < 0
	if neg {
		// The digits hold D = 2^(32(k-1)) - |v| > 0. Two's-complement
		// negate them: D's lowest nonzero digit d becomes 2^32 - d, and
		// every digit above it is complemented.
		i := 2
		for d[i] == 0 {
			i++
		}
		d[i] = 1<<BinWidth - d[i]
		for i++; i <= k; i++ {
			d[i] ^= mask
		}
	}
	h := k
	for h >= 2 && d[h] == 0 {
		h--
	}
	if h < 2 {
		return 0
	}
	// w holds bits T..T-63 of the magnitude, T its leading bit.
	bl := bits.Len64(d[h])
	T := BinWidth*(lo-pad+h-2) + bl - 1
	w := (d[h]<<BinWidth|d[h-1])<<(BinWidth-bl) | d[h-2]>>bl
	var r float64
	if T <= 52 {
		// Below 2^53 ulps of 2^-1074 the magnitude is exact: scaling
		// the integer down to the subnormal grid rounds nothing.
		r = float64(w>>(63-T)) * 0x1p-1074
	} else {
		// Fold every bit under w into its lowest bit (sticky); the
		// uint64 conversion then rounds to 53 bits, ties to even.
		if d[h-2]&(1<<bl-1) != 0 {
			w |= 1
		}
		for i := 2; i < h-2 && w&1 == 0; i++ {
			if d[i] != 0 {
				w |= 1
			}
		}
		// float64(w) is in [2^63, 2^64]; rescale it by 2^(T-63-1074) in
		// the exponent field. T >= 53 keeps the result normal.
		fb := math.Float64bits(float64(w))
		if int(fb>>52)+T-(63+1074) >= 0x7ff {
			r = math.Inf(1)
		} else {
			r = math.Float64frombits(fb + uint64(T-(63+1074))<<52)
		}
	}
	if neg {
		return -r
	}
	return r
}

// Sum computes the one-shot binned reproducible sum of xs.
func Sum(xs []float64) float64 {
	var st State
	st.AddSlice(xs)
	return st.Finalize()
}

// AddSlice folds every element of xs into st with the two-level batch
// kernel (twolevel.go): renormalization bookkeeping is hoisted out of
// the element loop (one check per renormEvery elements, which is also
// the level-0 run bound R) and eligible elements plain-add into an
// anchored quad of register partials, flushed exactly at every
// re-anchor and batch end. Because every operation is exact, the
// result is bit-identical to element-wise Add and to the reference
// path (AddSliceRef) — kernel engine and batch boundaries are pure
// speed knobs, not part of the plan.
func (st *State) AddSlice(xs []float64) {
	st.addBatches(xs, false)
}

// AddSliceRef folds xs with the per-element three-fold reference
// deposit loop — the pre-two-level batch path, kept as the oracle the
// fast path is pinned against. Its deposits are those of element-wise
// Add in the same order, so its state equals Add's field for field.
// It produces the same represented value and Finalize bits as
// AddSlice; the in-memory bin decomposition may differ (the two-level
// path splits window-(A-1) elements against the anchor window's
// grids).
func (st *State) AddSliceRef(xs []float64) {
	st.addBatches(xs, true)
}

// addBatches cuts xs into batches that fit the renormalization budget
// and deposits each with the reference loop (ref) or the two-level
// kernel, accounting count and pend once per batch.
func (st *State) addBatches(xs []float64, ref bool) {
	for len(xs) > 0 {
		batch := xs
		if budget := renormEvery - st.pend; int64(len(batch)) > budget {
			batch = batch[:budget]
		}
		if ref {
			st.batch1(batch)
		} else {
			st.batchTwoLevel(batch)
		}
		st.count += int64(len(batch))
		st.pend += int64(len(batch))
		if st.pend >= renormEvery {
			st.renorm()
		}
		xs = xs[len(batch):]
	}
}

// batch1 deposits xs directly into the state's bins, serially, with
// the per-element three-fold reference deposit (top-of-range and
// non-finite operands take the slow path), and widens the live window
// once for the whole batch. It leaves count and pend to its caller.
func (st *State) batch1(xs []float64) {
	lo, top := uint(numSlots), uint(0)
	b := &st.bins
	for _, x := range xs {
		ef := int(math.Float64bits(x) >> 52 & 0x7ff)
		if ef >= hiEF {
			st.widen(st.slowNoCount(x, ef))
			continue
		}
		s := uint(ef+51) >> binShift
		lo, top = min(lo, s), max(top, s+Folds)
		b0 := bigTab[s+pad]
		c0 := (b0 + x) - b0
		r := x - c0
		b[s+pad] += c0
		b1 := bigTab[s+pad-1]
		c1 := (b1 + r) - b1
		r -= c1
		b[s+pad-1] += c1
		b2 := bigTab[s+pad-2]
		c2 := (b2 + r) - b2
		b[s+pad-2] += c2
	}
	st.widen(lo, top)
}

// slowNoCount deposits a top-of-range operand (|x| >= 2^974) or tallies
// a non-finite one, without the count/pend bookkeeping or widening the
// live window. Huge operands are chunked in the 2^-scaleSH domain;
// chunks landing below hiBin are scaled back up (exactly) before
// depositing. It returns the slots [lo, top) it deposited into, an
// empty range for a non-finite x.
func (st *State) slowNoCount(x float64, ef int) (lo, top uint) {
	if ef == 0x7ff {
		switch {
		case math.IsNaN(x):
			st.nan = true
		case x > 0:
			st.posInf++
		default:
			st.negInf++
		}
		return 0, 0
	}
	j := (ef + 51) >> binShift // 64 or 65
	r := x * (0x1p-512)        // exact: |x| >= 2^974
	for f := 0; f < Folds; f++ {
		jj := j - f
		var big float64
		if jj >= hiBin {
			big = bigTab[jj+pad]
		} else {
			// Scaled constant for an unscaled bin: quantum exponent
			// (jj*BinWidth - 1074) - scaleSH.
			big = math.Ldexp(1.5, jj*BinWidth-1074-scaleSH+52)
		}
		c := (big + r) - big
		r -= c
		if jj >= hiBin {
			st.bins[jj+pad] += c
		} else {
			st.bins[jj+pad] += c * (0x1p512) // exact rescale
		}
	}
	return uint(j), uint(j) + Folds
}
