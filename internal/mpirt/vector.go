package mpirt

import (
	"fmt"
	"slices"

	"repro/internal/reduce"
)

// Vector collectives: the realistic MPI_Reduce semantics where each
// rank contributes a same-length vector and the result is the
// elementwise reduction. Every element is combined with its own op
// state, so the per-element guarantees (e.g. BN's bitwise
// reproducibility) carry over to every schedule.
//
// Large vectors are segmented (segSize elements per message) so that
// segments pipeline: on the tree topologies a parent forwards segment
// s to its own parent as soon as it has merged it, while segment s+1
// is still in flight below — with bounded inbox credit the pipeline
// self-throttles instead of buffering the whole vector per link. The
// double binary tree alternates segments between its two complementary
// trees, which is what halves its per-link load. Rabenseifner and the
// reduce-scatter+allgather allreduce subdivide the vector by recursive
// halving instead; their message sizes shrink geometrically per round,
// so segSize does not apply to them.

// VectorReduce reduces each rank's local vector elementwise to root
// over the selected topology. segSize bounds the number of elements
// per pipelined message (0 = whole vector in one message). Returns the
// finalized vector at root and ok = true there; nil, false elsewhere.
func (r *Rank) VectorReduce(root int, local []float64, op reduce.Op,
	topo Topology, mode Mode, segSize int) ([]float64, bool) {
	out, ok := r.reduceStates(root, op.Leaves(local), op, topo, mode, segSize)
	if !ok {
		return nil, false
	}
	return finalizeStates(op, out), true
}

// reduceStates reduces a vector of per-element partial states to root,
// dispatching to the schedule the topology selects. The states slice
// is consumed. Returns the reduced states and true at root only.
func (r *Rank) reduceStates(root int, states []reduce.State, op reduce.Op,
	topo Topology, mode Mode, segSize int) ([]reduce.State, bool) {
	switch topo {
	case Rabenseifner:
		return r.rabenseifner(root, states, op, false)
	case RSAllgather:
		out, ok := r.rabenseifner(root, states, op, true)
		if !ok || r.ID != root {
			return nil, false
		}
		return out, true
	case DoubleTree:
		return r.doubleTreeReduceStates(root, states, op, mode, segSize)
	default:
		return r.treeReduceStates(root, states, op, topo, mode, segSize)
	}
}

// treeReduceStates is the segmented, pipelined reduction over the
// single-tree topologies (binomial, binary, chain, flat).
func (r *Rank) treeReduceStates(root int, states []reduce.State, op reduce.Op,
	topo Topology, mode Mode, segSize int) ([]reduce.State, bool) {
	n := len(states)
	numSegs, segSize := segmentPlan(n, segSize)
	// All ranks must agree on the segment count; it derives from the
	// (assumed uniform) local length. Guard against mismatched lengths
	// by exchanging the count via the tag sequence itself: each segment
	// reduction is an independent collective round, so a mismatch
	// deadlocks loudly in tests rather than corrupting silently.
	parent, children := r.family(topo, root)
	for s := 0; s < numSegs; s++ {
		lo := s * segSize
		hi := lo + segSize
		if hi > n {
			hi = n
		}
		tag := r.nextCollTag()
		r.mergeSegFromChildren(states[lo:hi], op, children, mode, tag)
		if parent >= 0 {
			seg := make([]reduce.State, hi-lo)
			copy(seg, states[lo:hi])
			r.send(parent, tag, seg)
		}
	}
	if r.ID != root {
		return nil, false
	}
	return states, true
}

func finalizeStates(op reduce.Op, states []reduce.State) []float64 {
	out := make([]float64, len(states))
	for i, st := range states {
		out[i] = op.Finalize(st)
	}
	return out
}

// mergeSeg merges src into dst elementwise: dst's states are the left
// operands and may be reused in place; src is only read.
func mergeSeg(op reduce.Op, dst, src []reduce.State) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpirt: vector segment length mismatch: %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] = op.Merge(dst[i], src[i])
	}
}

// VectorAllReduce reduces elementwise and returns the finalized vector
// on every rank, each rank its own slice. RSAllgather runs natively (its
// allgather phase already leaves bitwise-identical states everywhere,
// so no broadcast is needed and each rank finalizes its own vector);
// every other topology reduces to rank 0 and broadcasts, and each rank
// copies the shared broadcast vector.
func (r *Rank) VectorAllReduce(local []float64, op reduce.Op,
	topo Topology, mode Mode, segSize int) []float64 {
	if topo == RSAllgather {
		out, _ := r.rabenseifner(0, op.Leaves(local), op, true)
		return finalizeStates(op, out)
	}
	v, _ := r.VectorReduce(0, local, op, topo, mode, segSize)
	return slices.Clone(r.Broadcast(0, v).([]float64))
}
