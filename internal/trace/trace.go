// Package trace records the reduction tree an actual (possibly
// nondeterministic) run used, and replays it. This is the tooling the
// paper's Section V-D calls for — "tools that, at exascale, profile
// parameters of interest (e.g. n, k, dr, and tree shape) at runtime" —
// applied to the tree-shape parameter: wrap any reduce.Op in a
// Recorder, run the collective, and the recorder captures the exact
// merge topology that arrival order produced. The trace can then be
//
//   - replayed with any other algorithm (e.g. an exact oracle) to
//     compute what that very tree would have yielded — attributing a
//     result discrepancy to the tree rather than the data; and
//   - analyzed for shape statistics (depth, imbalance), feeding the
//     tree-shape term of an intelligent selector.
//
// Recorders are safe for concurrent use: merges from many ranks
// interleave during a collective.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/reduce"
)

// node identifies a leaf or merge event in a trace.
type node struct {
	// For leaves, value is the operand and a, b are -1. For merges,
	// a and b are the input node ids.
	value float64
	a, b  int
}

// Trace is the recorded reduction topology.
type Trace struct {
	nodes []node
	root  int
}

// Recorder wraps a reduce.Op and records every Leaf and Merge call.
type Recorder struct {
	op reduce.Op

	mu    sync.Mutex
	nodes []node
}

// NewRecorder returns a recording wrapper around op.
func NewRecorder(op reduce.Op) *Recorder { return &Recorder{op: op} }

// traced pairs the wrapped operator state with its trace node id.
type traced struct {
	st reduce.State
	id int
}

// Name implements reduce.Op.
func (r *Recorder) Name() string { return r.op.Name() + "+trace" }

// Leaf implements reduce.Op, recording the operand.
func (r *Recorder) Leaf(x float64) reduce.State {
	r.mu.Lock()
	id := len(r.nodes)
	r.nodes = append(r.nodes, node{value: x, a: -1, b: -1})
	r.mu.Unlock()
	return traced{st: r.op.Leaf(x), id: id}
}

// Merge implements reduce.Op, recording the merge event.
func (r *Recorder) Merge(a, b reduce.State) reduce.State {
	ta, tb := a.(traced), b.(traced)
	r.mu.Lock()
	id := len(r.nodes)
	r.nodes = append(r.nodes, node{a: ta.id, b: tb.id})
	r.mu.Unlock()
	return traced{st: r.op.Merge(ta.st, tb.st), id: id}
}

// FoldSlice implements reduce.Op with the per-element reference fold,
// so a rank's local sum is recorded leaf by leaf and merge by merge; it
// ignores dst.
func (r *Recorder) FoldSlice(_ reduce.State, xs []float64) reduce.State {
	return reduce.LeftFold(r, xs)
}

// Leaves implements reduce.Op with one recorded Leaf per element; it
// ignores dst.
func (r *Recorder) Leaves(_ []reduce.State, xs []float64) []reduce.State {
	return reduce.LeafEach[reduce.State](r, xs)
}

// Finalize implements reduce.Op.
func (r *Recorder) Finalize(s reduce.State) float64 {
	return r.op.Finalize(s.(traced).st)
}

// TraceOf extracts the trace rooted at the final state s (the state the
// collective returned at the root rank).
func (r *Recorder) TraceOf(s reduce.State) Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	nodes := make([]node, len(r.nodes))
	copy(nodes, r.nodes)
	return Trace{nodes: nodes, root: s.(traced).id}
}

// Leaves returns the number of operands under the trace's root.
func (t Trace) Leaves() int {
	n := 0
	t.walk(func(nd node) {
		if nd.a < 0 {
			n++
		}
	})
	return n
}

// walk visits all nodes reachable from the root (iteratively).
func (t Trace) walk(visit func(node)) {
	if len(t.nodes) == 0 {
		return
	}
	stack := []int{t.root}
	seen := make([]bool, len(t.nodes))
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		nd := t.nodes[id]
		visit(nd)
		if nd.a >= 0 {
			stack = append(stack, nd.a, nd.b)
		}
	}
}

// Depth returns the longest leaf-to-root path length (merge count).
func (t Trace) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	depth := make([]int, len(t.nodes))
	// Node ids are creation-ordered, so inputs precede their merge.
	for id, nd := range t.nodes {
		if nd.a >= 0 {
			d := depth[nd.a]
			if depth[nd.b] > d {
				d = depth[nd.b]
			}
			depth[id] = d + 1
		}
	}
	return depth[t.root]
}

// Replay re-executes the recorded topology — the same operands combined
// through the same tree — with another operator. Replaying with the
// original operator reproduces its result bitwise; replaying with an
// exact oracle yields the true sum of the same tree's operands,
// attributing any discrepancy to the tree. Merges rerun in recorded
// order, so an operator that reuses Merge's left operand is safe
// here whenever the recorded run kept only each Merge's result: no
// replayed node is read after it was a left operand.
func (t Trace) Replay(op reduce.Op) float64 {
	if len(t.nodes) == 0 {
		return op.Finalize(op.Leaf(0))
	}
	states := make([]reduce.State, len(t.nodes))
	// Node ids are creation-ordered, so inputs precede their merge.
	for id, nd := range t.nodes {
		if nd.a < 0 {
			states[id] = op.Leaf(nd.value)
		} else if states[nd.a] != nil && states[nd.b] != nil {
			states[id] = op.Merge(states[nd.a], states[nd.b])
		}
	}
	if states[t.root] == nil {
		panic(fmt.Sprintf("trace: root %d unreachable during replay (incomplete trace)", t.root))
	}
	return op.Finalize(states[t.root])
}

// Operands returns the operands under the trace's root, in node-id
// (creation) order.
func (t Trace) Operands() []float64 {
	var out []float64
	// Collect reachable leaf ids in ascending id order.
	reach := make([]bool, len(t.nodes))
	if len(t.nodes) > 0 {
		stack := []int{t.root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if reach[id] {
				continue
			}
			reach[id] = true
			if nd := t.nodes[id]; nd.a >= 0 {
				stack = append(stack, nd.a, nd.b)
			}
		}
	}
	for id, nd := range t.nodes {
		if reach[id] && nd.a < 0 {
			out = append(out, nd.value)
		}
	}
	return out
}
