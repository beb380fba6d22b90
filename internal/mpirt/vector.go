package mpirt

import (
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
	out, ok := r.reduceStates(root, r.leaves(op, local), op, topo, mode, segSize)
	if !ok {
		return nil, false
	}
	return finalizeStates(op, out), true
}

// reduceStates reduces a working vector (see spare) of per-element
// partial states to root, dispatching to the schedule the topology
// selects. The vector is consumed. Returns the reduced states and true
// at root only.
func (r *Rank) reduceStates(root int, vec *[]reduce.State, op reduce.Op,
	topo Topology, mode Mode, segSize int) ([]reduce.State, bool) {
	switch topo {
	case Rabenseifner:
		return r.rabenseifner(root, vec, op, false)
	case RSAllgather:
		out, ok := r.rabenseifner(root, vec, op, true)
		if !ok || r.ID != root {
			return nil, false
		}
		return out, true
	case DoubleTree:
		dt, id := r.w.doubleTree(), r.ID
		return r.segTreeReduce(root, vec, op, mode, segSize, [2]int{dt.parents[0][id], dt.parents[1][id]},
			[2][]int{dt.children[0][id], dt.children[1][id]}, dt.roots)
	default:
		parent, children := r.family(topo, root)
		return r.segTreeReduce(root, vec, op, mode, segSize, [2]int{parent, parent},
			[2][]int{children, children}, [2]int{root, root})
	}
}

// segTreeReduce is the segmented, pipelined reduction over rooted
// trees: segment s climbs tree s%2, in which this rank's parent is
// parents[s%2] (-1 at that tree's root) and its children children[s%2].
// The single-tree topologies pass their one tree twice. A tree rooted
// away from root forwards its finished segments there under a second
// tag, so an arrival-order child receive never takes one for a child's
// contribution. All ranks must agree on the segment count, which
// derives from the (assumed uniform) local length: a mismatch deadlocks
// or panics loudly in tests rather than corrupting silently. Each
// message carries the sender's whole working vector, of which the
// receiver reads the segment's range (see rabenseifner).
func (r *Rank) segTreeReduce(root int, vec *[]reduce.State, op reduce.Op, mode Mode, segSize int,
	parents [2]int, children [2][]int, roots [2]int) ([]reduce.State, bool) {
	states := *vec
	n := len(states)
	numSegs, segSize := segmentPlan(n, segSize)
	for s := 0; s < numSegs; s++ {
		lo, hi, t := s*segSize, min((s+1)*segSize, n), s%2
		tag, tagFinal := r.nextCollTag(), r.nextCollTag()
		r.fromChildren(children[t], mode, tag, func(p any) { mergeSeg(op, states[lo:hi], vecOf(p, n)[lo:hi]) })
		// No copy: this rank never writes a sent segment again.
		switch {
		case parents[t] >= 0:
			r.send(parents[t], tag, vec)
		case r.ID != root:
			r.send(root, tagFinal, vec)
		}
		if r.ID == root && roots[t] != root {
			copy(states[lo:hi], vecOf(r.Recv(roots[t], tagFinal), n)[lo:hi])
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
		out, _ := r.rabenseifner(0, r.leaves(op, local), op, true)
		return finalizeStates(op, out)
	}
	v, _ := r.VectorReduce(0, local, op, topo, mode, segSize)
	return slices.Clone(r.Broadcast(0, v).([]float64))
}
