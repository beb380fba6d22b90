// Package tree models the reduction trees at the center of the paper:
// full binary trees whose leaves are floating-point operands and whose
// internal nodes are partial reductions. A tree varies along exactly
// the two axes the paper studies — its shape and the assignment of
// operands to leaves — and both axes are captured by a Plan.
//
// Plans are deterministic: the same Plan over the same operands always
// produces the same result for a given algorithm. Nondeterminism is
// injected by *generating* varied plans (NewPlan with different seeds),
// mirroring how an exascale runtime would present a different tree on
// every run, or by the mpirt package's arrival-order collectives.
package tree

import (
	"fmt"

	"repro/internal/fpu"
	"repro/internal/reduce"
)

// Shape identifies a reduction-tree shape family.
type Shape uint8

const (
	// Balanced is the completely balanced (parallel) tree of Fig 1(a).
	Balanced Shape = iota
	// Unbalanced is the completely unbalanced (serial) chain of Fig 1(b).
	Unbalanced
	// Random is a uniformly random binary-tree shape: partial states are
	// merged in a random pairing order derived from the plan's seed.
	Random
	// Blocked models an MPI-style two-level reduction: the operands are
	// split into contiguous blocks, each block is reduced serially (a
	// rank's local sum), and the block partials are merged pairwise.
	Blocked
	// Knomial is a radix-k tree (default radix 4): each merge level
	// folds k partials serially — the shape family production MPI
	// collectives interpolate between Unbalanced (k = n) and Balanced
	// (k = 2) with.
	Knomial

	numShapes
)

// Shapes lists every shape.
var Shapes = []Shape{Balanced, Unbalanced, Random, Blocked, Knomial}

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Balanced:
		return "balanced"
	case Unbalanced:
		return "unbalanced"
	case Random:
		return "random"
	case Blocked:
		return "blocked"
	case Knomial:
		return "knomial"
	}
	return fmt.Sprintf("Shape(%d)", uint8(s))
}

// MarshalText encodes the shape by name for JSON map keys.
func (s Shape) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a shape name.
func (s *Shape) UnmarshalText(b []byte) error {
	for _, sh := range Shapes {
		if sh.String() == string(b) {
			*s = sh
			return nil
		}
	}
	return fmt.Errorf("tree: unknown shape %q", b)
}

// Plan is a fully determined reduction tree: a shape, an operand-to-leaf
// assignment, and (for Random and Blocked) shape parameters.
type Plan struct {
	Shape Shape
	// Perm maps leaf position i to operand index Perm[i]; nil means the
	// identity assignment.
	Perm []int
	// Seed drives the Random shape's pairing order.
	Seed uint64
	// Blocks is the number of serial blocks for the Blocked shape
	// (defaults to 16 when zero).
	Blocks int
	// Radix is the Knomial fan-in (defaults to 4 when zero).
	Radix int
}

// IdentityPlan returns a plan with the identity leaf assignment.
func IdentityPlan(shape Shape) Plan { return Plan{Shape: shape} }

// NewPlan returns a plan with a random operand-to-leaf assignment drawn
// from rng, for n operands. For Random shapes the pairing seed is drawn
// from rng too.
func NewPlan(shape Shape, n int, rng *fpu.RNG) Plan {
	return Plan{Shape: shape, Perm: rng.Perm(n), Seed: rng.Uint64()}
}

// Depth returns the depth of the reduction tree over n leaves: the
// number of merge levels an operand contribution can traverse. For the
// deterministic shapes this is exact (pinned against brute-force merge
// counting in the tests); for Random it is the worst case n-1 — a
// fully degenerate chain of pairings — while the typical tree is far
// shallower; see ExpectedDepth for the mean.
func (p Plan) Depth(n int) int {
	if n <= 1 {
		return 0
	}
	switch p.Shape {
	case Unbalanced:
		return n - 1
	case Balanced:
		d := 0
		for m := n; m > 1; m = (m + 1) / 2 {
			d++
		}
		return d
	case Blocked:
		b := p.blocks()
		if b > n {
			b = n
		}
		per := (n + b - 1) / b
		// Only ceil(n/per) blocks are non-empty; when b does not divide
		// n the trailing blocks can be empty and never produce partials.
		nb := (n + per - 1) / per
		d := per - 1
		for m := nb; m > 1; m = (m + 1) / 2 {
			d++
		}
		return d
	case Knomial:
		k := p.Radix
		if k < 2 {
			k = 4
		}
		d := 0
		for m := n; m > 1; m = (m + k - 1) / k {
			group := k
			if m < k {
				group = m
			}
			d += group - 1
		}
		return d
	default: // Random: worst case; ExpectedDepth gives the mean.
		return n - 1
	}
}

// ExpectedDepth returns the expected depth of the reduction tree over n
// leaves. For the deterministic shapes it equals Depth. For Random —
// whose Depth reports the worst case n-1 — it is the exact mean leaf
// depth of the uniform random pairing process (Kingman coalescent
// topology): at every stage with m live partials a given leaf's partial
// is involved in the merge with probability 2/m, so
//
//	E[depth] = sum_{m=2..n} 2/m = 2*(H_n - 1) ~= 2*ln(n),
//
// exponentially shallower than the worst case.
func (p Plan) ExpectedDepth(n int) float64 {
	if n <= 1 {
		return 0
	}
	if p.Shape != Random {
		return float64(p.Depth(n))
	}
	h := 0.0
	for m := 2; m <= n; m++ {
		h += 2 / float64(m)
	}
	return h
}

func (p Plan) blocks() int {
	if p.Blocks <= 0 {
		return 16
	}
	return p.Blocks
}

// Executor runs plans over operand sets with a fixed algorithm, reusing
// its internal buffers so repeated runs (the paper's 100–1000 trees per
// data point) do not allocate.
type Executor[S any] struct {
	m reduce.Monoid[S]
	// sf is m's devirtualized batch fold when it implements
	// reduce.SliceFolder (nil otherwise), looked up once so fold pays
	// no type assertion per knomial group.
	sf     reduce.SliceFolder[S]
	vals   []float64
	states []S
}

// NewExecutor returns an executor for monoid m.
func NewExecutor[S any](m reduce.Monoid[S]) *Executor[S] {
	e := &Executor[S]{m: m}
	if sf, ok := m.(reduce.SliceFolder[S]); ok {
		e.sf = sf
	}
	return e
}

// fold reduces a serial leaf run — the unbalanced chain, a blocked
// shape's block, a knomial first-level group — by the reference fold,
// through m's batch kernel when it has one (identical bits by the
// SliceFolder contract). vals must be non-empty.
func (e *Executor[S]) fold(vals []float64) S {
	if e.sf != nil {
		return e.sf.FoldSlice(vals)
	}
	return reduce.LeftFold(e.m, vals)
}

// Run reduces xs under plan p and returns the root value.
func (e *Executor[S]) Run(p Plan, xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return e.m.Finalize(e.m.Leaf(0))
	}
	if p.Perm != nil && len(p.Perm) != n {
		panic(fmt.Sprintf("tree: plan permutation length %d != %d operands", len(p.Perm), n))
	}
	if cap(e.vals) < n {
		e.vals = make([]float64, n)
	}
	vals := e.vals[:n]
	permuteInto(vals, xs, p.Perm)
	return e.runShape(p, vals)
}

// permuteInto writes xs reordered by perm (identity when nil) into dst.
func permuteInto(dst, xs []float64, perm []int) {
	if perm == nil {
		copy(dst, xs)
		return
	}
	for i, j := range perm {
		dst[i] = xs[j]
	}
}

// runShape walks plan p's tree over already-permuted leaf values. It is
// the permutation-free tail of Run, shared with MultiExecutor so one
// operand permutation can be amortized over several algorithms; both
// paths therefore perform bitwise-identical merge sequences.
func (e *Executor[S]) runShape(p Plan, vals []float64) float64 {
	if len(vals) == 0 {
		return e.m.Finalize(e.m.Leaf(0))
	}
	switch p.Shape {
	case Unbalanced:
		return e.m.Finalize(e.fold(vals))
	case Balanced:
		if cap(e.states) < len(vals) {
			e.states = make([]S, len(vals))
		}
		return reduce.Pairwise(e.m, vals, e.states)
	case Blocked:
		return e.runBlocked(p, vals)
	case Knomial:
		return e.runKnomial(p, vals)
	case Random:
		return e.runRandom(p, vals)
	}
	panic("tree: invalid shape " + p.Shape.String())
}

func (e *Executor[S]) runBlocked(p Plan, vals []float64) float64 {
	n := len(vals)
	b := p.blocks()
	if b > n {
		b = n
	}
	per := (n + b - 1) / b
	// When b does not divide n the trailing blocks can start past the
	// end of the data; only the ceil(n/per) non-empty blocks produce
	// partials (an empty block has no identity partial to contribute).
	b = (n + per - 1) / per
	if cap(e.states) < b {
		e.states = make([]S, b)
	}
	partials := e.states[:b]
	for i := 0; i < b; i++ {
		lo := i * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		partials[i] = e.fold(vals[lo:hi])
	}
	for b > 1 {
		half := b / 2
		for i := 0; i < half; i++ {
			partials[i] = e.m.Merge(partials[2*i], partials[2*i+1])
		}
		if b%2 == 1 {
			partials[half] = partials[b-1]
			b = half + 1
		} else {
			b = half
		}
	}
	return e.m.Finalize(partials[0])
}

func (e *Executor[S]) runKnomial(p Plan, vals []float64) float64 {
	n := len(vals)
	k := p.Radix
	if k < 2 {
		k = 4
	}
	if cap(e.states) < n {
		e.states = make([]S, n)
	}
	level := e.states[:n]
	// The first merge level folds each radix group's leaves serially —
	// exactly the reference fold of that group's values — so it fuses
	// with leaf lifting into one pass.
	out := 0
	for i := 0; i < n; i += k {
		level[out] = e.fold(vals[i:min(i+k, n)])
		out++
	}
	n = out
	for n > 1 {
		out := 0
		for i := 0; i < n; i += k {
			hi := i + k
			if hi > n {
				hi = n
			}
			st := level[i]
			for _, s := range level[i+1 : hi] {
				st = e.m.Merge(st, s)
			}
			level[out] = st
			out++
		}
		n = out
	}
	return e.m.Finalize(level[0])
}

func (e *Executor[S]) runRandom(p Plan, vals []float64) float64 {
	n := len(vals)
	if cap(e.states) < n {
		e.states = make([]S, n)
	}
	states := e.states[:n]
	for i, x := range vals {
		states[i] = e.m.Leaf(x)
	}
	// A value RNG keeps the trial loop allocation-free (NewRNG would
	// heap-allocate under some inlining decisions).
	var rng fpu.RNG
	rng.Reseed(p.Seed)
	for m := n; m > 1; m-- {
		i := rng.Intn(m)
		j := rng.Intn(m - 1)
		if j >= i {
			j++
		}
		merged := e.m.Merge(states[i], states[j])
		// Compact the live prefix: merged takes the lower slot, the
		// last live state fills the higher hole.
		if i < j {
			i, j = j, i
		}
		states[j] = merged
		states[i] = states[m-1]
	}
	return e.m.Finalize(states[0])
}

// Reduce is a convenience one-shot form of Executor.Run.
func Reduce[S any](m reduce.Monoid[S], p Plan, xs []float64) float64 {
	return NewExecutor(m).Run(p, xs)
}

// Spread runs trials plans of the given shape over xs with lane l —
// each plan with a fresh random leaf assignment drawn from rng — and
// returns the root value of each run. This is the core measurement
// loop behind Figs 6, 7, and 9–11.
func Spread(l Lane, shape Shape, xs []float64, trials int, rng *fpu.RNG) []float64 {
	out := make([]float64, trials)
	for t := 0; t < trials; t++ {
		out[t] = l.Run(NewPlan(shape, len(xs), rng), xs)
	}
	return out
}
