package mpirt

import (
	"math/bits"

	"repro/internal/reduce"
)

// Double binary tree reduction (Sanders, Speck & Träff; the schedule
// behind NCCL's tree allreduce and oneCCL's double_tree). Two
// complementary binary trees span all ranks: T1 is the inorder-numbered
// search tree over ranks 0..n-1, whose interior nodes all sit at odd
// ranks; T2 is its mirror (even n) or its rotation by one rank (odd n),
// whose interior nodes all sit at even ranks. Every rank is therefore
// interior in at most one tree and a leaf in the other, so when the
// payload is split into segments — even segments reduced up T1, odd
// segments up T2 — each rank forwards only half the vector through its
// interior role, halving the per-link load of a single binary tree
// while keeping the log n span.

// inorderTree builds the parent array of the inorder-numbered binary
// tree over ranks 0..n-1 and returns its root. The range (a, b]
// (labels a+1..b, 1-based) is rooted at a + 2^floor(log2(b-a)), which
// keeps every interior label even (every leaf label odd), i.e. every
// interior rank odd.
func inorderTree(n int) (parent []int, root int) {
	parent = make([]int, n)
	var rec func(a, b, par int)
	rec = func(a, b, par int) {
		if a >= b {
			return
		}
		r := a + 1<<(bits.Len(uint(b-a))-1)
		parent[r-1] = par - 1 // par == 0 encodes "no parent"
		rec(a, r-1, r)
		rec(r, b, r)
	}
	rec(0, n, 0)
	return parent, 1<<(bits.Len(uint(n))-1) - 1
}

// doubleTrees returns the parent arrays and roots of the two
// complementary trees.
func doubleTrees(n int) (p1, p2 []int, r1, r2 int) {
	p1, r1 = inorderTree(n)
	p2 = make([]int, n)
	if n%2 == 0 {
		// Mirror: rank r in T2 plays the role of rank n-1-r in T1, so
		// T2's interior ranks are the mirrors of T1's odd interiors —
		// all even.
		for r := 0; r < n; r++ {
			if q := p1[n-1-r]; q < 0 {
				p2[r] = -1
			} else {
				p2[r] = n - 1 - q
			}
		}
		r2 = n - 1 - r1
	} else {
		// Rotation: rank r in T2 plays the role of rank r-1 (mod n) in
		// T1; odd-rank interiors of T1 map to even-rank interiors of T2.
		for r := 0; r < n; r++ {
			if q := p1[(r-1+n)%n]; q < 0 {
				p2[r] = -1
			} else {
				p2[r] = (q + 1) % n
			}
		}
		r2 = (r1 + 1) % n
	}
	return p1, p2, r1, r2
}

// dtreeInfo is the immutable double-tree structure for one world size,
// shared read-only by every rank.
type dtreeInfo struct {
	parents  [2][]int
	roots    [2]int
	children [2][][]int
}

// doubleTree returns the double-tree structure of the world, built on
// first use. The structure depends only on the size and is never
// mutated after construction, so one copy serves every rank: without
// sharing, each rank would rebuild O(n) arrays, turning a single
// collective into O(n^2) work and allocation across the world (seconds
// of pure construction at 10^4 ranks).
func (w *World) doubleTree() *dtreeInfo {
	w.dtreeOnce.Do(func() {
		p1, p2, r1, r2 := doubleTrees(w.size)
		w.dtree = &dtreeInfo{
			parents:  [2][]int{p1, p2},
			roots:    [2]int{r1, r2},
			children: [2][][]int{childLists(p1), childLists(p2)},
		}
	})
	return w.dtree
}

// childLists inverts a parent array into per-rank sorted child lists.
func childLists(parent []int) [][]int {
	children := make([][]int, len(parent))
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	// Parent arrays are built in ascending rank order, so each list is
	// already sorted ascending — the canonical FixedOrder merge order.
	return children
}

// doubleTreeReduceStates reduces the state vector to root: even
// segments climb T1, odd segments climb T2, pipelined per segment.
// Each tree's root forwards its finished segments to the caller's root
// under a distinct tag (so arrival-order child receives can never
// confuse a finished segment with a child contribution).
func (r *Rank) doubleTreeReduceStates(root int, states []reduce.State,
	op reduce.Op, mode Mode, segSize int) ([]reduce.State, bool) {
	n := len(states)
	numSegs, segSize := segmentPlan(n, segSize)
	dt := r.w.doubleTree()
	parents := dt.parents
	roots := dt.roots
	children := dt.children

	for s := 0; s < numSegs; s++ {
		lo := s * segSize
		hi := lo + segSize
		if hi > n {
			hi = n
		}
		tag := r.nextCollTag()
		tagFinal := r.nextCollTag()
		t := s % 2
		r.mergeSegFromChildren(states[lo:hi], op, children[t][r.ID], mode, tag)
		switch {
		case parents[t][r.ID] >= 0:
			seg := make([]reduce.State, hi-lo)
			copy(seg, states[lo:hi])
			r.send(parents[t][r.ID], tag, seg)
		case r.ID != root:
			// Tree root, but not the caller's root: forward the
			// finished segment.
			seg := make([]reduce.State, hi-lo)
			copy(seg, states[lo:hi])
			r.send(root, tagFinal, seg)
		}
		if r.ID == root && roots[t] != root {
			copy(states[lo:hi], r.Recv(roots[t], tagFinal).([]reduce.State))
		}
	}
	if r.ID != root {
		return nil, false
	}
	return states, true
}

// mergeSegFromChildren absorbs one segment's contribution from each
// child into dst, in ascending-child order (FixedOrder) or arrival
// order (ArrivalOrder).
func (r *Rank) mergeSegFromChildren(dst []reduce.State, op reduce.Op,
	children []int, mode Mode, tag int) {
	switch mode {
	case FixedOrder:
		got := make([]struct {
			src int
			seg []reduce.State
		}, 0, len(children))
		for range children {
			src, p := r.RecvAny(tag)
			got = append(got, struct {
				src int
				seg []reduce.State
			}{src, p.([]reduce.State)})
		}
		for i := 1; i < len(got); i++ {
			for j := i; j > 0 && got[j].src < got[j-1].src; j-- {
				got[j], got[j-1] = got[j-1], got[j]
			}
		}
		for _, g := range got {
			mergeSeg(op, dst, g.seg)
		}
	case ArrivalOrder:
		for range children {
			_, p := r.RecvAny(tag)
			mergeSeg(op, dst, p.([]reduce.State))
		}
	default:
		panic("mpirt: invalid mode")
	}
}

// segmentPlan normalizes a segment size against a vector length and
// returns the segment count (at least 1: empty vectors still run one
// protocol round so every rank's tag sequence advances identically).
func segmentPlan(n, segSize int) (numSegs, size int) {
	if segSize <= 0 || segSize > n {
		segSize = n
	}
	if segSize == 0 {
		segSize = 1
	}
	numSegs = 1
	if n > 0 {
		numSegs = (n + segSize - 1) / segSize
	}
	return numSegs, segSize
}
