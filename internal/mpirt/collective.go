package mpirt

import (
	"math/bits"

	"repro/internal/reduce"
)

// Bandwidth-optimal collectives: Rabenseifner reduce (recursive-halving
// reduce-scatter + binomial gather) and the reduce-scatter + allgather
// allreduce (recursive halving then recursive doubling). Both operate
// on a vector of per-element reduction states; each rank ends up
// combining O(m) elements instead of the O(m log n) a full-vector tree
// schedule moves through every interior rank, which is why production
// MPI layers select them for large payloads (MPICH's
// MPIR_Reduce_intra_reduce_scatter_gather, oneCCL's rabenseifner).
//
// Both schedules pair each rank with exactly one partner per round, so
// the merge order is fixed by the schedule itself: the result is
// deterministic for every operator in either Mode, and — because
// partial states aggregate rank groups in ascending-group order — an
// exactly-mergeable operator (BN) finalizes to the same bits as every
// tree topology.
//
// Non-power-of-two worlds use the standard MPICH fold-in: with
// rem = size - pof2, each even rank below 2*rem sends its whole state
// vector to the odd rank above it and drops out of the power-of-two
// phase; the odd rank absorbs it (lower-rank operand first) and
// proceeds with newrank = rank/2. Surviving ranks at or above 2*rem
// get newrank = rank - rem. After the allgather phase the surviving
// odd ranks send the finished vector back to their dropped partners.

// pof2Below returns the largest power of two <= n.
func pof2Below(n int) int {
	return 1 << (bits.Len(uint(n)) - 1)
}

// foldRoles describes a rank's place in the power-of-two core group.
type foldRoles struct {
	pof2, rem int
	newrank   int // -1 for ranks folded out of the core group
}

func foldInfo(rank, size int) foldRoles {
	pof2 := pof2Below(size)
	rem := size - pof2
	f := foldRoles{pof2: pof2, rem: rem}
	switch {
	case rank < 2*rem && rank%2 == 0:
		f.newrank = -1
	case rank < 2*rem:
		f.newrank = rank / 2
	default:
		f.newrank = rank - rem
	}
	return f
}

// oldRank maps a core-group newrank back to the world rank that holds
// it.
func (f foldRoles) oldRank(newrank int) int {
	if newrank < f.rem {
		return 2*newrank + 1
	}
	return newrank + f.rem
}

// coreRange replays the first rounds of the recursive halving over
// nElem elements and returns the [lo,hi) range core-group rank newrank
// keeps after them. Every rank can derive every other rank's range, so
// the schedules skip the exchanges that would carry no state without
// sending any range metadata.
func coreRange(newrank, nElem, pof2, rounds int) (lo, hi int) {
	hi = nElem
	for k := 0; k < rounds; k++ {
		mid := lo + (hi-lo)/2
		if newrank&(pof2>>(k+1)) == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// rabenseifner runs the reduce-scatter core and then either a binomial
// gather of the chunks to root (allgather=false: Rabenseifner reduce)
// or a recursive-doubling allgather plus post-fold (allgather=true:
// reduce-scatter + allgather allreduce). It returns the full reduced
// state vector and whether this rank holds it: only the root for the
// gather form, every rank for the allgather form.
//
// Inside the core group a rank sends only non-empty ranges and
// receives only what its partner holds, so a vector shorter than the
// core group moves only the messages that carry a state; the merges,
// their operands and their order are the same as with every exchange.
//
// Every message carries the sender's whole working vector, as the
// pointer to its header that the rank keeps unchanged for the Run (see
// spare): boxing a pointer allocates nothing. The receiver reads only
// the range the schedule has the sender give it, which every rank
// derives alike. The sender writes into that range again only on a
// message that the receiver's read of it precedes.
//
// The vector is consumed: ranges sent away must not be reused by the
// caller. A rank whose partner holds the lower group merges into the
// received state (the lower-group operand is Merge's left), so a range
// sent away may also be rewritten in place by its receiver.
func (r *Rank) rabenseifner(root int, vec *[]reduce.State, op reduce.Op, allgather bool) ([]reduce.State, bool) {
	// Fixed per-collective tag budget so every rank's tag sequence
	// stays aligned regardless of its role in this schedule.
	tFold := r.nextCollTag()
	tRS := r.nextCollTag()
	tGath := r.nextCollTag()
	tPost := r.nextCollTag()

	n := r.Size
	states := *vec
	nElem := len(states)
	f := foldInfo(r.ID, n)
	L := bits.Len(uint(f.pof2)) - 1 // log2(pof2) rounds

	// Pre-fold: fold the excess ranks into their odd neighbors.
	if r.ID < 2*f.rem {
		if f.newrank < 0 {
			r.send(r.ID+1, tFold, vec)
			if !allgather {
				// Dropped ranks take no further part in a rooted
				// reduce unless they are the root, which receives the
				// finished vector from its surrogate below.
				if r.ID == root {
					return vecOf(r.Recv(root+1, tPost), nElem), true
				}
				return nil, false
			}
			// Allreduce: wait for the finished vector from the partner.
			return vecOf(r.Recv(r.ID+1, tPost), nElem), true
		}
		partner := vecOf(r.Recv(r.ID-1, tFold), nElem)
		for i := range states {
			// Lower-rank operand first: canonical ascending-group order.
			states[i] = op.Merge(partner[i], states[i])
		}
	}

	// Reduce-scatter by recursive halving over the core group. Both
	// partners derive the same [lo,hi) range split from their shared
	// newrank prefix, and each gives exactly the range the other keeps.
	lo, hi := 0, nElem
	for k := 0; k < L; k++ {
		halfBit := f.pof2 >> (k + 1)
		partnerOld := f.oldRank(f.newrank ^ halfBit)
		mid := lo + (hi-lo)/2
		keepLo, keepHi, giveLo, giveHi := lo, mid, mid, hi
		if f.newrank&halfBit != 0 {
			keepLo, keepHi, giveLo, giveHi = mid, hi, lo, mid
		}
		if giveHi > giveLo {
			r.send(partnerOld, tRS, vec)
		}
		if keepHi > keepLo {
			theirs := vecOf(r.Recv(partnerOld, tRS), nElem)[keepLo:keepHi]
			for i := range theirs {
				// The group with the lower newranks is the earlier operand.
				if f.newrank&halfBit == 0 {
					states[keepLo+i] = op.Merge(states[keepLo+i], theirs[i])
				} else {
					states[keepLo+i] = op.Merge(theirs[i], states[keepLo+i])
				}
			}
		}
		lo, hi = keepLo, keepHi
	}

	if !allgather {
		return r.rabenseifnerGather(root, vec, lo, hi, f, L, tGath, tPost)
	}

	// Allgather by recursive doubling: undo the halving, exchanging
	// owned ranges with the same partners in reverse round order. The
	// sibling's range is the one it kept in round k.
	for k := L - 1; k >= 0; k-- {
		partnerNew := f.newrank ^ (f.pof2 >> (k + 1))
		partnerOld := f.oldRank(partnerNew)
		if hi > lo {
			r.send(partnerOld, tGath, vec)
		}
		if sLo, sHi := coreRange(partnerNew, nElem, f.pof2, k+1); sHi > sLo {
			copy(states[sLo:sHi], vecOf(r.Recv(partnerOld, tGath), nElem)[sLo:sHi])
		}
		lo, hi = coreRange(f.newrank, nElem, f.pof2, k)
	}
	// Post-fold: hand the finished vector back to the dropped ranks.
	if r.ID < 2*f.rem && f.newrank >= 0 {
		r.send(r.ID-1, tPost, vec)
	}
	return states, true
}

// rabenseifnerGather performs the binomial gather of scattered chunks
// to the root (or its surrogate when the root was folded out), then
// ships the assembled vector to the root if needed. A subtree that owns
// no element sends nothing, and its parent does not wait for it.
func (r *Rank) rabenseifnerGather(root int, vec *[]reduce.State,
	lo, hi int, f foldRoles, L, tGath, tPost int) ([]reduce.State, bool) {
	states := *vec
	nElem := len(states)
	// The gather target inside the core group: the root itself, or —
	// when the root is a folded-out even rank — the odd neighbor that
	// absorbed it.
	surrogate := root
	if sf := foldInfo(root, r.Size); sf.newrank < 0 {
		surrogate = root + 1
	}
	rootNew := foldInfo(surrogate, r.Size).newrank
	// chunk is the element range vertex u keeps.
	chunk := func(u int) (int, int) {
		return coreRange((u+rootNew)%f.pof2, nElem, f.pof2, L)
	}
	// owns reports whether any vertex in [v, v+size) keeps an element.
	owns := func(v, size int) bool {
		for u := v; u < v+size; u++ {
			if eLo, eHi := chunk(u); eHi > eLo {
				return true
			}
		}
		return false
	}

	// Binomial gather over core-group vertices: vertex v's children are
	// v+b for every b below its lowest set bit (every b at the root),
	// and child v+b roots a subtree of b vertices. A child's vector
	// holds its subtree's chunks, which its parent copies into its own,
	// so the root's vector ends complete. Chunks are disjoint element
	// ranges, so no merging happens here — only placement.
	v := (f.newrank - rootNew + f.pof2) % f.pof2
	lsb := v & -v
	if v == 0 {
		lsb = f.pof2
	}
	owned := hi > lo
	for b := 1; b < lsb; b <<= 1 {
		if owns(v+b, b) {
			src, p := r.RecvAny(tGath)
			theirs := vecOf(p, nElem)
			// The child's vertex c roots a subtree of c&-c vertices.
			c := (foldInfo(src, r.Size).newrank - rootNew + f.pof2) % f.pof2
			for u, end := c, c+(c&-c); u < end; u++ {
				eLo, eHi := chunk(u)
				copy(states[eLo:eHi], theirs[eLo:eHi])
			}
			owned = true
		}
	}
	if v != 0 {
		if owned {
			r.send(f.oldRank((v-lsb+rootNew)%f.pof2), tGath, vec)
		}
		return nil, false
	}
	// v == 0: this rank is the gather target and holds the full vector.
	if surrogate != root {
		r.send(root, tPost, vec)
		return nil, false
	}
	return states, true
}
