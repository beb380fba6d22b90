package sum

import "slices"

// Standard computes the naive left-to-right iterative sum (ST).
func Standard(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// PairwiseBlock is Pairwise's serial base-case width (exported for the
// selector's chain-shape error estimators).
const PairwiseBlock = 64

// Pairwise computes the sum with a recursive balanced split, falling
// back to the iterative loop below PairwiseBlock (the usual
// cache-friendly pairwise summation).
func Pairwise(xs []float64) float64 {
	n := len(xs)
	if n <= PairwiseBlock {
		return Standard(xs)
	}
	half := n / 2
	return Pairwise(xs[:half]) + Pairwise(xs[half:])
}

// PairwiseChainHeight returns the longest floating-point accumulation
// chain of Pairwise(n values) — up to PairwiseBlock-1 additions in a
// serial base block plus one per recursion level above it. Error-bound
// estimators must use this height, not the ideal ⌈log2 n⌉ of
// element-level pairwise summation: the blocked base case makes the
// real chain markedly longer (69 at n = 4096, vs 12 ideal).
//
// The walk is exact: the floor/ceil splits mean node sizes at any
// depth take at most two consecutive values [lo, hi], every splitting
// node produces both a floor and a ceil child, and a node terminates
// (serial chain size-1) once its size fits the base block. O(log n),
// no allocation (the estimators run on the fused serving fast path).
func PairwiseChainHeight(n int) int {
	if n <= 1 {
		return 0
	}
	best := 0
	lo, hi := n, n
	for depth := 0; ; depth++ {
		if lo <= PairwiseBlock {
			t := lo
			if hi <= PairwiseBlock {
				t = hi
			}
			if h := depth + t - 1; h > best {
				best = h
			}
			if hi <= PairwiseBlock {
				return best
			}
			// Only the hi-sized nodes split further.
			lo, hi = hi/2, hi-hi/2
		} else {
			lo, hi = lo/2, hi-hi/2
		}
	}
}

// SortedAscending sums |x|-ascending — the "conventional wisdom" order
// for same-sign data (Section III-A of the paper). The input is not
// modified.
func SortedAscending(xs []float64) float64 {
	return sortedSum(xs, nil, false)
}

// SortedDescending sums |x|-descending — the conventional order for
// mixed-sign data. The input is not modified.
func SortedDescending(xs []float64) float64 {
	return sortedSum(xs, nil, true)
}

// SortedAscendingBuf is SortedAscending with a caller-provided scratch
// buffer: when cap(scratch) >= len(xs) the sort works in scratch and the
// call does not allocate, so repeated profiling passes can reuse one
// buffer. The input is not modified.
func SortedAscendingBuf(xs, scratch []float64) float64 {
	return sortedSum(xs, scratch, false)
}

// SortedDescendingBuf is SortedDescending with a caller-provided scratch
// buffer (see SortedAscendingBuf).
func SortedDescendingBuf(xs, scratch []float64) float64 {
	return sortedSum(xs, scratch, true)
}

// sortedSum copies xs (into scratch when it is large enough), sorts the
// copy by |x| with slices.SortFunc — a concrete-typed sort, unlike the
// reflection-based sort.Slice with a closure per comparison it replaces
// — and sums left-to-right.
func sortedSum(xs, scratch []float64, desc bool) float64 {
	var cp []float64
	if cap(scratch) >= len(xs) {
		cp = scratch[:len(xs)]
	} else {
		cp = make([]float64, len(xs))
	}
	copy(cp, xs)
	if desc {
		slices.SortFunc(cp, func(a, b float64) int { return cmpAbs(b, a) })
	} else {
		slices.SortFunc(cp, cmpAbs)
	}
	return Standard(cp)
}

// cmpAbs orders by |a| vs |b| (NaN compares equal to everything, as the
// old sort.Slice comparator had it).
func cmpAbs(a, b float64) int {
	aa, ab := abs(a), abs(b)
	switch {
	case aa < ab:
		return -1
	case aa > ab:
		return 1
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// StandardAcc is the streaming form of ST.
type StandardAcc struct{ s float64 }

// Add folds x into the running sum.
func (a *StandardAcc) Add(x float64) { a.s += x }

// Sum returns the current sum.
func (a *StandardAcc) Sum() float64 { return a.s }

// Reset restores the accumulator to zero.
func (a *StandardAcc) Reset() { a.s = 0 }

// STMonoid is the mergeable tree form of ST: partial state is the bare
// partial sum.
type STMonoid struct{}

// Leaf lifts an operand.
func (STMonoid) Leaf(x float64) float64 { return x }

// Merge adds two partial sums (one floating-point add per tree node).
func (STMonoid) Merge(a, b float64) float64 { return a + b }

// Finalize returns the root sum.
func (STMonoid) Finalize(s float64) float64 { return s }

// FoldSlice implements reduce.SliceFolder: the devirtualized batch loop,
// bit-identical to the reference left-to-right fold: it starts from
// xs[0], so an all -0 slice stays -0 (kernel.ST starts from +0). One
// serial chain unrolled by four, so speed does not hinge on code layout.
func (STMonoid) FoldSlice(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s, rest := xs[0], xs[1:]
	i := 0
	for ; i+4 <= len(rest); i += 4 {
		s += rest[i]
		s += rest[i+1]
		s += rest[i+2]
		s += rest[i+3]
	}
	for ; i < len(rest); i++ {
		s += rest[i]
	}
	return s
}
