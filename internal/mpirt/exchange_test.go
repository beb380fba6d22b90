package mpirt

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/reduce"
	"repro/internal/sum"
)

// exprOp is a reduce.Op whose state is a fingerprint of its merge
// expression: Leaf(x) hashes the leaf id int(x), and Merge(a, b) hashes
// the ordered pair, so a result shows (up to a 2^-64 collision) every
// merge a schedule made, its operands and their order. A fingerprint
// instead of the expression tree keeps the test's ~3·10^7 merges cheap.
type exprOp struct{}

func exprMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

func exprLeaf(id int) uint64       { return exprMix(uint64(id) + 0x9e3779b97f4a7c15) }
func exprMerge(a, b uint64) uint64 { return exprMix(a*0xff51afd7ed558ccd + b) }

func (exprOp) Name() string                  { return "expr" }
func (exprOp) Leaf(x float64) reduce.State   { return exprLeaf(int(x)) }
func (exprOp) Finalize(reduce.State) float64 { return 0 }
func (exprOp) Merge(a, b reduce.State) reduce.State {
	return exprMerge(a.(uint64), b.(uint64))
}
func (o exprOp) FoldSlice(_ reduce.State, xs []float64) reduce.State { return reduce.LeftFold(o, xs) }
func (o exprOp) Leaves(_ []reduce.State, xs []float64) []reduce.State {
	return reduce.LeafEach[reduce.State](o, xs)
}

// exprStride separates the leaf ids of one rank's elements: element e
// of rank r is the leaf r*exprStride + e, so a state placed at the
// wrong element shows as well as a wrong merge.
const exprStride = 1 << 10

// wantExpr is element e's expression fingerprint in an n-rank world,
// built from the schedules' definition without the runtime. With pof2
// the largest power of two <= n and rem = n - pof2, core rank j's
// operand is the MPICH fold-in pair (2j 2j+1), lower rank left, for
// j < rem and world rank j+rem otherwise. Round k of the recursive
// halving then merges the two groups of core ranks that differ in bit
// pof2>>(k+1), the group with the bit clear on the left.
func wantExpr(n, e int) uint64 {
	pof2, rounds := 1, 0
	for 2*pof2 <= n {
		pof2, rounds = 2*pof2, rounds+1
	}
	rem := n - pof2
	leaf := func(rank int) uint64 { return exprLeaf(rank*exprStride + e) }
	// group(j, k) merges the core ranks that agree with j outside the
	// top k bits: the state after k rounds.
	var group func(j, k int) uint64
	group = func(j, k int) uint64 {
		if k == 0 {
			if j < rem {
				return exprMerge(leaf(2*j), leaf(2*j+1))
			}
			return leaf(j + rem)
		}
		h := pof2 >> k
		return exprMerge(group(j&^h, k-1), group(j|h, k-1))
	}
	return group(0, rounds)
}

// TestRabenseifnerMergeExpression pins the merges of Rabenseifner and
// RSAllgather against wantExpr for every element, so skipping empty
// exchanges can neither drop, add nor reorder a merge. Worlds 1–33 run
// every vector length from 0 to 2*pof2+1 at every root (folded-out
// roots included), the two modes alternating by root. Worlds 128 and
// 130 (root 0 folded out) run every root at lengths 0, 1 and pof2-1,
// and root 0 at every length up to pof2+1 and at 2*pof2+1.
func TestRabenseifnerMergeExpression(t *testing.T) {
	type cell struct{ n, nElem, root int }
	var cells []cell
	small := 33
	if raceEnabled || testing.Short() {
		small = 17
	}
	for n := 1; n <= small; n++ {
		pof2 := pof2Below(n)
		for nElem := 0; nElem <= 2*pof2+1; nElem++ {
			for root := 0; root < n; root++ {
				cells = append(cells, cell{n, nElem, root})
			}
		}
	}
	if !raceEnabled && !testing.Short() {
		for _, n := range []int{128, 130} {
			for nElem := 0; nElem <= 2*128+1; nElem++ {
				for root := 0; root < n; root++ {
					if nElem < 2 || nElem == 127 || root == 0 && (nElem <= 129 || nElem == 257) {
						cells = append(cells, cell{n, nElem, root})
					}
				}
			}
		}
	}
	// One world run per (n, nElem, topology) reduces to each root in
	// turn, the modes alternating by root.
	for len(cells) > 0 {
		n, nElem := cells[0].n, cells[0].nElem
		var roots []int
		for len(cells) > 0 && cells[0].n == n && cells[0].nElem == nElem {
			roots = append(roots, cells[0].root)
			cells = cells[1:]
		}
		want := make([]uint64, nElem)
		for e := range want {
			want[e] = wantExpr(n, e)
		}
		modes := []Mode{FixedOrder, ArrivalOrder}
		for _, topo := range []Topology{Rabenseifner, RSAllgather} {
			got := make([][]reduce.State, n)
			w := NewWorld(n, Config{})
			if err := w.Run(func(r *Rank) {
				local := make([]float64, nElem)
				for e := range local {
					local[e] = float64(r.ID*exprStride + e)
				}
				// Fingerprints are immutable, so the lifted leaves can
				// be shared by every collective of the run.
				leaves := exprOp{}.Leaves(nil, local)
				for _, root := range roots {
					states, ok := r.reduceStates(root, slices.Clone(leaves), exprOp{}, topo, modes[root%2], 0)
					if ok != (r.ID == root) {
						panic(fmt.Sprintf("rank %d: ok=%v for root %d", r.ID, ok, root))
					}
					if ok {
						got[root] = states
					}
				}
			}); err != nil {
				t.Fatalf("n=%d len=%d %v: %v", n, nElem, topo, err)
			}
			for _, root := range roots {
				if len(got[root]) != nElem {
					t.Fatalf("n=%d len=%d %v root %d: %d states", n, nElem, topo, root, len(got[root]))
				}
				for e, st := range got[root] {
					if st.(uint64) != want[e] {
						t.Fatalf("n=%d len=%d %v %v root %d element %d: merge expression differs from the schedule's",
							n, nElem, topo, modes[root%2], root, e)
					}
				}
			}
		}
	}
}

// TestEmptyExchangeMessageCounts pins the messages Rabenseifner and
// RSAllgather send. Below pof2 elements only the exchanges that carry a
// state run: a scalar over 128 ranks sends 127 reduce-scatter messages
// plus 7 gather hops or 127 allgather messages, where sending every
// exchange took 1023 and 1792. From pof2 elements up no range is empty,
// and the counts are those of every exchange.
func TestEmptyExchangeMessageCounts(t *testing.T) {
	op := sum.StandardAlg.Op()
	for _, c := range []struct {
		ranks, nElem int
		topo         Topology
		want         int
	}{
		{128, 1, Rabenseifner, 134},
		{128, 1, RSAllgather, 254},
		{130, 1, Rabenseifner, 137},
		{130, 1, RSAllgather, 258},
		{128, 128, Rabenseifner, 1023},
		{128, 128, RSAllgather, 1792},
		{128, 257, Rabenseifner, 1023},
		{128, 257, RSAllgather, 1792},
		{130, 128, Rabenseifner, 1026},
		{130, 128, RSAllgather, 1796},
		{130, 257, Rabenseifner, 1026},
		{130, 257, RSAllgather, 1796},
	} {
		w := NewWorld(c.ranks, Config{})
		if err := w.Run(func(r *Rank) {
			r.VectorReduce(0, make([]float64, c.nElem), op, c.topo, ArrivalOrder, 0)
		}); err != nil {
			t.Fatal(err)
		}
		if w.sent != c.want {
			t.Errorf("%d ranks x %d %v: %d messages, want %d", c.ranks, c.nElem, c.topo, w.sent, c.want)
		}
	}
}

// TestBackpressureBackToBackCollectives runs 300 scalar Rabenseifner
// reductions back to back in one Run. The folded-out ranks of a rooted
// reduce and the ranks that own no element have no part after their
// first send, so they run ahead and fill their neighbours' inboxes;
// a rank waiting for credit must keep draining its own inbox, or two
// core ranks sending to each other block forever.
func TestBackpressureBackToBackCollectives(t *testing.T) {
	op := sum.StandardAlg.Op()
	for _, n := range []int{6, 12, 31, 130} {
		w := NewWorld(n, Config{})
		done := make(chan error, 1)
		go func() {
			done <- w.Run(func(r *Rank) {
				for c := 0; c < 300; c++ {
					r.ReduceSum(n-1, []float64{1}, op, Rabenseifner, FixedOrder)
				}
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d ranks: back-to-back reductions deadlocked", n)
		}
	}
}
