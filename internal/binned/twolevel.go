package binned

import "math"

// This file implements the two-level accumulate-direct deposit path —
// the default batch kernel behind AddSlice.
//
// # Level 0: the anchored quad
//
// Instead of three Dekker round-to-multiple folds against a freshly
// loaded constant per element (the reference path, AddSliceRef), the
// batch loop pins an anchor window A and keeps a quad of 16 register
// accumulators: four independent sublanes, each holding four grades
//
//	h — multiples of q_A       (chunk c0 against big_A)
//	m — multiples of q_{A-1}   (chunk c1 against big_{A-1})
//	l — multiples of q_{A-2}   (chunk c2 against big_{A-2})
//	u — the exact sub-q_{A-2} residual
//
// Every element whose raw exponent field lies in the anchor's
// two-window range [32(A-1)-51, 32A-20] — i.e. its own top window is A
// or A-1 — is split against the three broadcast constants and
// plain-added into its sublane's four grades. The split constants no
// longer depend on the element's own window, so the whole group kernel
// is branch-free and vectorizes: groups of groupW elements are checked
// for range membership with integer compares and deposited with 13
// float64 adds/subs (depositGroupsGo, or on amd64 the AVX2 kernel or
// the AVX-512 kernel's 8-element groups).
//
// The AVX-512 kernel keeps eight lane partials per grade: lanes i and
// i+4 both serve sublane i, and the kernel adds the upper four into
// the lower four before it returns. The eight lanes partition the
// run's elements just as the four sublanes do, so every lane partial,
// and every sum of lane partials, is a partial sum of one run: the
// capacity bounds below hold for each of them, every add in the kernel
// and in its exit fold is exact, and the quad it leaves equals the
// portable kernel's.
//
// # The run-length bound R
//
// Level-0 partials are exact for any run of up to R = renormEvery = 2^20
// elements between flushes (the batch driver never feeds a longer run:
// AddSlice caps each batch at the renorm budget):
//
//   - h: each element contributes at most 2^32 quanta of q_A (elements
//     of window A-1 contribute at most one quantum), so |h| <=
//     2^20·2^32 q_A = 2^52 q_A < 2^53 q_A — every add exact.
//   - m: the residual after c0 is < q_A/2 = 2^31 q_{A-1}; window-(A-1)
//     elements contribute up to 2^32 q_{A-1}; |m| <= 2^52 q_{A-1}.
//   - l: same shape one window down; |l| <= 2^52 q_{A-2}.
//   - u: residuals after three folds are exact multiples of the finest
//     operand ulp in range, gamma = 2^(32(A-1)-51-1075), with |r2| <=
//     q_{A-2}/2 = 2^19 gamma; window-A elements have r2 = 0 exactly
//     (their ulp exceeds q_{A-2}). After 2^20 adds |u| <= 2^39 gamma,
//     a 39-bit multiple of gamma — exact in float64's 53 bits.
//
// # Flush schedule
//
// The quad is flushed — sublanes folded pairwise (exact: capacity
// bounds above leave a factor-4 margin) and added into bins[A],
// bins[A-1], bins[A-2], with u routed through the generic per-element
// deposit — on re-anchor, and at the end of every batch, hence before
// any renorm, Merge, or Finalize (State never holds level-0 partials
// across calls). Flushed mass per bin is bounded by the same chunk
// mass the reference path would deposit, plus the u deposits (at most
// one per groupW elements, each < q_{A-1}/2^11), so the renorm
// schedule's 2^53-quanta headroom argument is preserved (see DESIGN.md
// for the full accounting).
//
// Because every operation above is exact, the State after a two-level
// batch represents exactly Σ r(x_i) = Σ x_i — the same real number the
// reference path represents — so Finalize returns bitwise identical
// results even though the in-memory bin decomposition may differ
// (window-(A-1) elements split against window-A grids). This is what
// licenses per-CPU group kernels: engine choice, group width, and
// anchor policy are pure speed knobs outside the reproducibility
// contract.

// groupW is the group width of the level-0 kernels: eligibility is
// checked and deposits performed groupW elements at a time.
const groupW = 4

// Group kernels consume a prefix of xs in groups of groupW (or the
// kernel's native width), depositing eligible elements into the quad q
// (layout h=q[0:4], m=q[4:8], l=q[8:12], u=q[12:16]) against the
// broadcast constants consts = {big_A, big_{A-1}, big_{A-2}}. An
// element is eligible when its raw exponent field ef satisfies
// 0 <= ef-efLo <= efSpan. They return the number of elements consumed,
// stopping at the first group containing an ineligible element. The
// widest engine on this CPU is reached through depositGroupsFast
// (deposit_amd64.go / deposit_noasm.go); all engines perform the same
// exact operations, so the choice cannot affect Finalize bits.

// depositGroupsGo is the portable group kernel: four independent
// sublanes, groups of four, mirroring the AVX2 kernel's operation
// order sublane-for-sublane.
func depositGroupsGo(xs []float64, consts *[3]float64, efLo, efSpan int64, q *[16]float64) int64 {
	b0, b1, b2 := consts[0], consts[1], consts[2]
	h0, h1, h2, h3 := q[0], q[1], q[2], q[3]
	m0, m1, m2, m3 := q[4], q[5], q[6], q[7]
	l0, l1, l2, l3 := q[8], q[9], q[10], q[11]
	u0, u1, u2, u3 := q[12], q[13], q[14], q[15]
	var i int64
	n := int64(len(xs))
	for i+groupW <= n {
		x0, x1, x2, x3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		e0 := int64(math.Float64bits(x0)>>52&0x7ff) - efLo
		e1 := int64(math.Float64bits(x1)>>52&0x7ff) - efLo
		e2 := int64(math.Float64bits(x2)>>52&0x7ff) - efLo
		e3 := int64(math.Float64bits(x3)>>52&0x7ff) - efLo
		if uint64(e0) > uint64(efSpan) || uint64(e1) > uint64(efSpan) ||
			uint64(e2) > uint64(efSpan) || uint64(e3) > uint64(efSpan) {
			break
		}
		c0 := (b0 + x0) - b0
		c1 := (b0 + x1) - b0
		c2 := (b0 + x2) - b0
		c3 := (b0 + x3) - b0
		x0 -= c0
		x1 -= c1
		x2 -= c2
		x3 -= c3
		h0 += c0
		h1 += c1
		h2 += c2
		h3 += c3
		c0 = (b1 + x0) - b1
		c1 = (b1 + x1) - b1
		c2 = (b1 + x2) - b1
		c3 = (b1 + x3) - b1
		x0 -= c0
		x1 -= c1
		x2 -= c2
		x3 -= c3
		m0 += c0
		m1 += c1
		m2 += c2
		m3 += c3
		c0 = (b2 + x0) - b2
		c1 = (b2 + x1) - b2
		c2 = (b2 + x2) - b2
		c3 = (b2 + x3) - b2
		x0 -= c0
		x1 -= c1
		x2 -= c2
		x3 -= c3
		l0 += c0
		l1 += c1
		l2 += c2
		l3 += c3
		u0 += x0
		u1 += x1
		u2 += x2
		u3 += x3
		i += groupW
	}
	q[0], q[1], q[2], q[3] = h0, h1, h2, h3
	q[4], q[5], q[6], q[7] = m0, m1, m2, m3
	q[8], q[9], q[10], q[11] = l0, l1, l2, l3
	q[12], q[13], q[14], q[15] = u0, u1, u2, u3
	return i
}

// batchTwoLevel deposits one renorm-budgeted batch through the
// two-level path with the widest group kernel this CPU supports.
// Count/pend bookkeeping belongs to the caller (addBatches), as for the
// reference loop.
func (st *State) batchTwoLevel(xs []float64) {
	var q [16]float64
	var consts [3]float64
	var efLo, efSpan int64
	anchor := -1 // anchor window A (bin index), or -1 before the first
	n := len(xs)
	i := 0
	for i+groupW <= n {
		if anchor >= 0 {
			i += int(depositGroupsFast(xs[i:], &consts, efLo, efSpan, &q))
			if i+groupW > n {
				break
			}
		}
		// The group at i contains an element outside the current
		// anchor's range (or no anchor is set). Re-anchor at the
		// group's top window when the whole group fits a two-window
		// range; otherwise fall back to per-element deposits for this
		// group. Non-finite and top-of-range elements (ef >= hiEF)
		// always take the fallback, which keeps the anchor window
		// <= 63 and the quad clear of the scaled bins.
		ef0 := int(math.Float64bits(xs[i]) >> 52 & 0x7ff)
		ef1 := int(math.Float64bits(xs[i+1]) >> 52 & 0x7ff)
		ef2 := int(math.Float64bits(xs[i+2]) >> 52 & 0x7ff)
		ef3 := int(math.Float64bits(xs[i+3]) >> 52 & 0x7ff)
		emax := ef0
		if ef1 > emax {
			emax = ef1
		}
		if ef2 > emax {
			emax = ef2
		}
		if ef3 > emax {
			emax = ef3
		}
		if emax < hiEF {
			s := int(uint(emax+51) >> binShift)
			lo := int64(BinWidth*s) - (BinWidth + 51)
			if lo < 0 {
				lo = 0
			}
			if int64(ef0) >= lo && int64(ef1) >= lo && int64(ef2) >= lo && int64(ef3) >= lo {
				// The group lies within [lo, 32s-20]: after
				// re-anchoring at s it is eligible, so the kernel is
				// guaranteed to consume it — no livelock.
				st.flushQuad(&q, anchor)
				anchor = s
				consts[0] = bigTab[s+pad]
				consts[1] = bigTab[s+pad-1]
				consts[2] = bigTab[s+pad-2]
				efLo = lo
				efSpan = int64(BinWidth*s-20) - lo
				continue
			}
		}
		st.batch1(xs[i : i+groupW])
		i += groupW
	}
	st.batch1(xs[i:])
	st.flushQuad(&q, anchor)
}

// flushQuad folds the level-0 quad into the bins, exactly, and clears
// it. The pairwise sublane folds are exact: the four sublanes of a
// grade partition one run's elements, so every partial fold is bounded
// by the whole-run capacity bounds in the file comment (< 2^53 quanta
// of the grade's grid).
func (st *State) flushQuad(q *[16]float64, anchor int) {
	if anchor < 0 {
		return
	}
	s := uint(anchor)
	st.widen(s, s+Folds)
	if v := (q[0] + q[1]) + (q[2] + q[3]); v != 0 {
		st.bins[s+pad] += v
	}
	if v := (q[4] + q[5]) + (q[6] + q[7]); v != 0 {
		st.bins[s+pad-1] += v
	}
	if v := (q[8] + q[9]) + (q[10] + q[11]); v != 0 {
		st.bins[s+pad-2] += v
	}
	if v := (q[12] + q[13]) + (q[14] + q[15]); v != 0 {
		// The residual sum is far below q_{A-2}; one generic deposit
		// bins it exactly.
		u := [1]float64{v}
		st.batch1(u[:])
	}
	*q = [16]float64{}
}
