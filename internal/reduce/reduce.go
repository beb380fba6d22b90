// Package reduce defines the contracts that connect summation algorithms
// to reduction trees and simulated collectives.
//
// A reduction algorithm participates in a tree reduction by exposing a
// commutative-monoid-like triple: lift an operand into a partial state
// (Leaf), combine two partial states (Merge), and extract the final
// float64 (Finalize). Floating-point merges are not associative — that
// nonassociativity is exactly what this repository studies — so "monoid"
// describes the shape of the API, not an algebraic guarantee. The
// prerounded algorithm is the exception: its Merge is exactly
// associative and commutative by construction, which is what makes it
// bitwise reproducible under arbitrary reduction trees.
package reduce

// Monoid is the generic (unboxed) form used by performance-critical tree
// executors. S is the algorithm-specific partial-reduction state.
type Monoid[S any] interface {
	// Leaf lifts one operand into a partial state.
	Leaf(x float64) S
	// Merge combines two partial states (an internal tree node).
	Merge(a, b S) S
	// Finalize extracts the float64 result at the root.
	Finalize(s S) float64
}

// State is a boxed partial-reduction state used by the dynamic Op form.
type State interface{}

// Op is the dynamic (runtime-selectable) form of a reduction operator:
// what an intelligent runtime hands to a collective once an algorithm
// has been chosen.
type Op interface {
	Name() string
	Leaf(x float64) State
	// Merge combines a and b. It may reuse a's storage (every registered
	// operator folds b into a in place and returns a), so after the call the
	// caller keeps only the returned state: a must not be read, merged
	// or sent again. b is read-only and stays valid.
	Merge(a, b State) State
	Finalize(s State) float64
	// FoldSlice folds xs into one partial state — the "local sum" each
	// rank runs before a collective — bit for bit LeftFold(op, xs).
	// dst is nil or a dead state of this op: FoldSlice may overwrite its
	// storage and return it, and ignores a dst of another type. The
	// result never depends on what dst held. Wrappers that observe
	// individual Leaf and Merge calls ignore dst and implement it as
	// LeftFold(self, xs).
	FoldSlice(dst State, xs []float64) State
	// Leaves lifts each element of xs: element i equals Leaf(xs[i]) bit
	// for bit, and each element is owned on its own, so Merge may reuse
	// any one of them without touching its neighbours. dst works like
	// append's first argument: nil, or distinct dead states of this op
	// (an earlier Leaves result) whose storage Leaves may overwrite and
	// return; an element of another type is replaced, not reused. A
	// vector collective lifts a rank's whole vector with one call;
	// wrappers that observe individual Leaf calls ignore dst and
	// implement it as LeafEach(self, xs).
	Leaves(dst []State, xs []float64) []State
}

// boxed adapts a generic Monoid into a dynamic Op. It boxes *S, so
// Merge folds its right operand into the left one in place and a
// reused dst is overwritten instead of reallocated.
type boxed[S any] struct {
	name string
	m    Monoid[S]
}

func (b boxed[S]) Name() string { return b.name }
func (b boxed[S]) Leaf(x float64) State {
	s := b.m.Leaf(x)
	return &s
}
func (b boxed[S]) Finalize(s State) float64 { return b.m.Finalize(*s.(*S)) }

// Merge reuses a's storage, as Op.Merge allows; c is only read.
func (b boxed[S]) Merge(a, c State) State {
	p := a.(*S)
	*p = b.m.Merge(*p, *c.(*S))
	return p
}

// FoldSlice folds in the monoid's own state type — the SliceFolder
// kernel when the monoid has one, else the unboxed generic Leaf/Merge
// loop — into dst's storage when it is a *S.
func (b boxed[S]) FoldSlice(dst State, xs []float64) State {
	p, ok := dst.(*S)
	if !ok {
		p = new(S)
	}
	*p = FoldState(b.m, xs)
	return p
}

func (b boxed[S]) Leaves(dst []State, xs []float64) []State {
	dst = ReuseStates[S](dst, len(xs))
	for i, x := range xs {
		*dst[i].(*S) = b.m.Leaf(x)
	}
	return dst
}

// Boxed wraps a generic monoid as a dynamic Op under the given name.
func Boxed[S any](name string, m Monoid[S]) Op {
	return boxed[S]{name: name, m: m}
}

// ReuseStates resizes dst to n elements, each a distinct *S holding a
// zero S for an Op's Leaves to fill: an element that already is a *S
// keeps its storage, reset, and any other is replaced from one fresh
// slab. With a nil dst that is two allocations for any n. A *S with a
// Reset method resets through it, so a state that knows which of its
// words are live (binned.State) clears only those.
func ReuseStates[S any](dst []State, n int) []State {
	if n > cap(dst) {
		dst = append(make([]State, 0, n), dst...)
	}
	d := len(dst)
	dst = dst[:n]
	clear(dst[min(d, n):])
	var slab []S
	for i, s := range dst {
		if p, ok := s.(*S); ok {
			if r, ok := any(p).(interface{ Reset() }); ok {
				r.Reset()
			} else {
				*p = *new(S)
			}
			continue
		}
		if len(slab) == 0 {
			slab = make([]S, n-i)
		}
		dst[i], slab = &slab[0], slab[1:]
	}
	return dst
}

// SliceFolder is the optional batch fast path a Monoid may implement.
// FoldSlice must return exactly the state LeftFold would build, bit for
// bit, edge inputs (-0, infinities, NaN) included. Implementations are
// hand-specialized, devirtualized loops (see internal/kernel); their
// bitwise equivalence to the reference fold is pinned by the kernel
// package's exhaustive tests, which is what lets Fold, Op.FoldSlice, the
// parallel chunk folds, and the tree executors substitute them without
// changing any result.
type SliceFolder[S any] interface {
	FoldSlice(xs []float64) S
}

// LeftFold is the reference left-to-right fold (a fully unbalanced
// tree): Leaf(xs[0]) merged in order with Leaf of every later element,
// or Leaf(0) for an empty slice. Every batch kernel is defined, and
// tested, against it. A dynamic Op is a Monoid[State], so LeftFold(op,
// xs) is the per-element boxed fold.
func LeftFold[S any](m Monoid[S], xs []float64) S {
	if len(xs) == 0 {
		return m.Leaf(0)
	}
	acc := m.Leaf(xs[0])
	for _, x := range xs[1:] {
		acc = m.Merge(acc, m.Leaf(x))
	}
	return acc
}

// LeafEach lifts every element of xs with its own Leaf call.
func LeafEach[S any](m Monoid[S], xs []float64) []S {
	out := make([]S, len(xs))
	for i, x := range xs {
		out[i] = m.Leaf(x)
	}
	return out
}

// FoldState is LeftFold with m's devirtualized SliceFolder batch loop
// substituted when m implements it; the bits are identical.
func FoldState[S any](m Monoid[S], xs []float64) S {
	if sf, ok := m.(SliceFolder[S]); ok && len(xs) > 0 {
		return sf.FoldSlice(xs)
	}
	return LeftFold(m, xs)
}

// Fold reduces xs left-to-right under m and finalizes: Finalize of
// FoldState(m, xs).
func Fold[S any](m Monoid[S], xs []float64) float64 {
	return m.Finalize(FoldState(m, xs))
}

// Pairwise reduces xs with a balanced binary tree under m. The scratch
// slice, if non-nil and large enough, avoids an allocation.
func Pairwise[S any](m Monoid[S], xs []float64, scratch []S) float64 {
	n := len(xs)
	if n == 0 {
		return m.Finalize(m.Leaf(0))
	}
	var level []S
	if cap(scratch) >= n {
		level = scratch[:n]
	} else {
		level = make([]S, n)
	}
	for i, x := range xs {
		level[i] = m.Leaf(x)
	}
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			level[i] = m.Merge(level[2*i], level[2*i+1])
		}
		if n%2 == 1 {
			level[half] = level[n-1]
			n = half + 1
		} else {
			n = half
		}
	}
	return m.Finalize(level[0])
}
