package tree

// This file implements lockstep multi-algorithm execution: the fused
// engine's answer to the paper's question "how does each algorithm
// respond to the same tree nondeterminism". A MultiExecutor permutes
// the operand vector once per sampled tree and walks that single tree
// with every configured algorithm, so the O(n) permutation (and the
// plan generation feeding it) is amortized over all lanes instead of
// being repeated per algorithm as separate Spread loops would.

import (
	"fmt"

	"repro/internal/reduce"
)

// Lane is one algorithm's tree executor with its monoid type erased: a
// monoid bundled with its reusable per-algorithm state, run on its own
// (Run) or as a seat in a MultiExecutor. Construct lanes with NewLane;
// the interface is closed (laneRun is unexported) so every lane is
// backed by the same Executor code path, which is what makes lockstep
// and single-algorithm runs bitwise-identical on a shared plan.
type Lane interface {
	// Run reduces xs under plan p and returns the root value.
	Run(p Plan, xs []float64) float64
	// laneRun walks plan p's tree over already-permuted leaf values.
	laneRun(p Plan, vals []float64) float64
}

// laneRun implements Lane on the executor itself: a lane is an
// executor that skips the permutation step.
func (e *Executor[S]) laneRun(p Plan, vals []float64) float64 {
	return e.runShape(p, vals)
}

// NewLane wraps monoid m as a lane with reusable state.
func NewLane[S any](m reduce.Monoid[S]) Lane { return NewExecutor(m) }

// MultiExecutor evaluates every configured lane over the same plans,
// sharing one permuted-operand buffer. Like Executor it reuses all
// internal buffers, so the per-trial steady state allocates nothing.
type MultiExecutor struct {
	lanes []Lane
	vals  []float64
}

// NewMultiExecutor returns an executor over the given lanes.
func NewMultiExecutor(lanes ...Lane) *MultiExecutor {
	return &MultiExecutor{lanes: lanes}
}

// Lanes returns the number of configured lanes.
func (e *MultiExecutor) Lanes() int { return len(e.lanes) }

// Run reduces xs under plan p with every lane, permuting xs exactly
// once. Results are written per-lane into out (reused when it has the
// right length, allocated otherwise) and returned. Given the same plan,
// out[i] is bitwise-identical to lane i's Executor.Run(p, xs).
func (e *MultiExecutor) Run(p Plan, xs []float64, out []float64) []float64 {
	if out == nil || len(out) != len(e.lanes) {
		out = make([]float64, len(e.lanes))
	}
	n := len(xs)
	if n == 0 {
		for i, l := range e.lanes {
			out[i] = l.laneRun(p, nil)
		}
		return out
	}
	if p.Perm != nil && len(p.Perm) != n {
		panic(fmt.Sprintf("tree: plan permutation length %d != %d operands", len(p.Perm), n))
	}
	if cap(e.vals) < n {
		e.vals = make([]float64, n)
	}
	vals := e.vals[:n]
	permuteInto(vals, xs, p.Perm)
	for i, l := range e.lanes {
		out[i] = l.laneRun(p, vals)
	}
	return out
}
