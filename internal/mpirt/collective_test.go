package mpirt

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/sum"
	"repro/internal/superacc"
)

// bigRanks is the extreme-scale world size: the full O(10^4) target
// normally, a race-detector-friendly 256 when the suite runs under
// -race (the protocols are identical; only the scale differs).
func bigRanks() int {
	if raceEnabled {
		return 256
	}
	return 10000
}

func TestDoubleTreeStructure(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 31, 64, 100, 1023, 1024} {
		p1, p2, r1, r2 := doubleTrees(n)
		for i, tree := range []ReduceTree{{Parent: p1, Root: r1}, {Parent: p2, Root: r2}} {
			if err := tree.Validate(); err != nil {
				t.Fatalf("n=%d tree %d: %v", n, i+1, err)
			}
		}
		// Each rank must be interior (have children) in at most one tree.
		interior1 := make([]bool, n)
		interior2 := make([]bool, n)
		for v := 0; v < n; v++ {
			if p1[v] >= 0 {
				interior1[p1[v]] = true
			}
			if p2[v] >= 0 {
				interior2[p2[v]] = true
			}
		}
		for v := 0; v < n; v++ {
			if interior1[v] && interior2[v] {
				t.Fatalf("n=%d: rank %d interior in both trees", n, v)
			}
		}
		// Interior nodes of a complete binary tree: fan-in at most 2.
		for _, parent := range [][]int{p1, p2} {
			deg := make([]int, n)
			for v := 0; v < n; v++ {
				if parent[v] >= 0 {
					deg[parent[v]]++
				}
			}
			for v, d := range deg {
				if d > 2 {
					t.Fatalf("n=%d: rank %d has %d children", n, v, d)
				}
			}
		}
	}
}

func TestCollectiveVectorCorrectAllTopologies(t *testing.T) {
	const nElem = 37
	for _, ranks := range []int{1, 2, 3, 5, 8, 16, 31} {
		vecs := vecData(ranks, nElem, uint64(ranks))
		want := exactElementwise(vecs)
		for _, topo := range Topologies {
			for _, segSize := range []int{0, 5, 16} {
				w := NewWorld(ranks, Config{})
				var got []float64
				err := w.Run(func(r *Rank) {
					if v, ok := r.VectorReduce(0, vecs[r.ID], sum.CompositeAlg.Op(), topo, FixedOrder, segSize); ok {
						got = v
					}
				})
				if err != nil {
					t.Fatalf("ranks=%d %v seg=%d: %v", ranks, topo, segSize, err)
				}
				for j := range want {
					if math.Abs(got[j]-want[j]) > 1e-9*math.Abs(want[j])+1e-15 {
						t.Fatalf("ranks=%d %v seg=%d element %d: %g vs %g",
							ranks, topo, segSize, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func TestCollectiveRootVariants(t *testing.T) {
	// Roots that are folded-out even ranks, surviving odd ranks, tree
	// roots, and the last rank all must receive the same bits.
	const ranks, nElem = 11, 9
	vecs := vecData(ranks, nElem, 7)
	op := sum.BinnedAlg.Op()
	var want []float64
	for _, root := range []int{0, 1, 2, 5, ranks - 1} {
		for _, topo := range Topologies {
			w := NewWorld(ranks, Config{})
			var got []float64
			err := w.Run(func(r *Rank) {
				if v, ok := r.VectorReduce(root, vecs[r.ID], op, topo, ArrivalOrder, 4); ok {
					if r.ID != root {
						panic("non-root claimed result")
					}
					got = v
				}
			})
			if err != nil {
				t.Fatalf("root=%d %v: %v", root, topo, err)
			}
			if want == nil {
				want = got
				continue
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("root=%d %v: element %d bits differ", root, topo, j)
				}
			}
		}
	}
}

// TestCrossTopologyBitwisePin is the exactness pin: a BN payload
// reduced over every topology × mode × jitter seed × segment size must
// finalize to identical bits, equal to the correctly rounded exact sum
// (superacc) of each element's column.
func TestCrossTopologyBitwisePin(t *testing.T) {
	const ranks, nElem = 24, 33
	vecs := vecData(ranks, nElem, 11)
	op := sum.BinnedAlg.Op()
	want := make([]uint64, nElem)
	col := make([]float64, ranks)
	for j := 0; j < nElem; j++ {
		for i := range vecs {
			col[i] = vecs[i][j]
		}
		want[j] = math.Float64bits(superacc.Sum(col))
	}
	for _, topo := range Topologies {
		for _, mode := range []Mode{FixedOrder, ArrivalOrder} {
			for _, segSize := range []int{0, 5, 16, 33} {
				for seed := uint64(1); seed <= 3; seed++ {
					w := NewWorld(ranks, Config{Jitter: 100 * time.Microsecond, Seed: seed})
					var got []float64
					err := w.Run(func(r *Rank) {
						if v, ok := r.VectorReduce(0, vecs[r.ID], op, topo, mode, segSize); ok {
							got = v
						}
					})
					if err != nil {
						t.Fatalf("%v %v seg=%d seed=%d: %v", topo, mode, segSize, seed, err)
					}
					for j := range want {
						if math.Float64bits(got[j]) != want[j] {
							t.Fatalf("%v %v seg=%d seed=%d: element %d: got %x want %x",
								topo, mode, segSize, seed, j, math.Float64bits(got[j]), want[j])
						}
					}
				}
			}
		}
	}
}

// TestNonPowerOfTwoFoldIn pins the pre/post fold step of the
// rabenseifner-style schedules at awkward world sizes, including
// vectors shorter than the core group (empty scatter ranges).
func TestNonPowerOfTwoFoldIn(t *testing.T) {
	sizes := []int{3, 5, 1023}
	if !raceEnabled && !testing.Short() {
		sizes = append(sizes, 10000)
	}
	op := sum.BinnedAlg.Op()
	for _, ranks := range sizes {
		nElem := 8
		if ranks > 100 {
			nElem = 4 // far below pof2: exercises empty ownership ranges
		}
		perRank := 3
		xs := makeData(ranks*perRank, uint64(ranks))
		var want uint64
		{
			w := NewWorld(ranks, Config{})
			var ref float64
			if err := w.Run(func(r *Rank) {
				if v, ok := r.ReduceSum(0, xs[r.ID*perRank:(r.ID+1)*perRank], op, Binomial, FixedOrder); ok {
					ref = v
				}
			}); err != nil {
				t.Fatal(err)
			}
			want = math.Float64bits(ref)
			if want != math.Float64bits(superacc.Sum(xs)) {
				t.Fatalf("ranks=%d: binomial BN disagrees with the exact sum", ranks)
			}
		}
		for _, topo := range []Topology{Rabenseifner, RSAllgather, DoubleTree} {
			// Scalar (states can't scatter: pure fold-in + protocol).
			w := NewWorld(ranks, Config{})
			var got float64
			if err := w.Run(func(r *Rank) {
				if v, ok := r.ReduceSum(0, xs[r.ID*perRank:(r.ID+1)*perRank], op, topo, ArrivalOrder); ok {
					got = v
				}
			}); err != nil {
				t.Fatalf("ranks=%d %v: %v", ranks, topo, err)
			}
			if math.Float64bits(got) != want {
				t.Fatalf("ranks=%d %v: scalar bits %x want %x", ranks, topo, math.Float64bits(got), want)
			}
			// Vector shorter than pof2 where it matters.
			vecs := vecData(ranks, nElem, uint64(ranks)*13)
			w = NewWorld(ranks, Config{})
			var gotVec []float64
			if err := w.Run(func(r *Rank) {
				if v, ok := r.VectorReduce(0, vecs[r.ID], op, topo, ArrivalOrder, 2); ok {
					gotVec = v
				}
			}); err != nil {
				t.Fatalf("ranks=%d %v vector: %v", ranks, topo, err)
			}
			col := make([]float64, ranks)
			for j := 0; j < nElem; j++ {
				for i := range vecs {
					col[i] = vecs[i][j]
				}
				if math.Float64bits(gotVec[j]) != math.Float64bits(superacc.Sum(col)) {
					t.Fatalf("ranks=%d %v: vector element %d bits differ", ranks, topo, j)
				}
			}
		}
	}
}

// TestExtremeScaleCrossTopologyPin is the acceptance pin: at O(10^4)
// goroutine ranks (256 under -race), every topology reduces a BN
// payload under arrival order with jitter to the same bits as the
// correctly rounded exact sum (superacc).
func TestExtremeScaleCrossTopologyPin(t *testing.T) {
	ranks := bigRanks()
	if testing.Short() {
		ranks = 256
	}
	const perRank = 2
	xs := makeData(ranks*perRank, 42)
	want := math.Float64bits(superacc.Sum(xs))
	op := sum.BinnedAlg.Op()
	for _, topo := range Topologies {
		w := NewWorld(ranks, Config{Jitter: 20 * time.Microsecond, Seed: uint64(ranks)})
		var got float64
		if err := w.Run(func(r *Rank) {
			if v, ok := r.ReduceSum(0, xs[r.ID*perRank:(r.ID+1)*perRank], op, topo, ArrivalOrder); ok {
				got = v
			}
		}); err != nil {
			t.Fatalf("ranks=%d %v: %v", ranks, topo, err)
		}
		if math.Float64bits(got) != want {
			t.Errorf("ranks=%d %v: bits %x want %x", ranks, topo, math.Float64bits(got), want)
		}
	}
}

// TestVectorAllReduceRSAGBitwise checks the native allreduce path: the
// allgather replicates chunk states, so every rank finalizes identical
// bits with no broadcast.
func TestVectorAllReduceRSAGBitwise(t *testing.T) {
	for _, ranks := range []int{5, 16, 23} {
		const nElem = 12
		vecs := vecData(ranks, nElem, uint64(ranks)*3)
		op := sum.BinnedAlg.Op()
		results := make([][]float64, ranks)
		w := NewWorld(ranks, Config{Jitter: 50 * time.Microsecond, Seed: 9})
		if err := w.Run(func(r *Rank) {
			results[r.ID] = r.VectorAllReduce(vecs[r.ID], op, RSAllgather, ArrivalOrder, 0)
		}); err != nil {
			t.Fatal(err)
		}
		col := make([]float64, ranks)
		for j := 0; j < nElem; j++ {
			for i := range vecs {
				col[i] = vecs[i][j]
			}
			want := math.Float64bits(superacc.Sum(col))
			for id := range results {
				if math.Float64bits(results[id][j]) != want {
					t.Fatalf("ranks=%d rank %d element %d bits differ", ranks, id, j)
				}
			}
		}
	}
}

// TestInboxMemoryLinear verifies the bounded-credit inboxes: a 10^4
// rank world must allocate O(size) envelope slots, not the O(size^2)
// of the old 8*size+64 buffering (which would be ~26 GB of channel
// buffers at this scale).
func TestInboxMemoryLinear(t *testing.T) {
	const ranks = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewWorld(ranks, Config{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	allocated := after.HeapAlloc - before.HeapAlloc
	// inboxCap envelopes (~32 B each) plus channel overhead per rank:
	// comfortably under 4 KB per rank. The old buffering needed
	// 8*10^4 * 32 B ≈ 2.5 MB per rank.
	if limit := uint64(ranks * 4096); allocated > limit {
		t.Fatalf("10^4-rank world allocated %d bytes (> %d): inbox memory is not O(n)", allocated, limit)
	}
	if w.Size() != ranks {
		t.Fatal("world lost its size")
	}
	runtime.KeepAlive(w)
}

// TestBackpressureFlood floods the root far past its inbox credit from
// every rank at once: senders must block on the bounded inbox and
// resume as the root drains, with no message lost.
func TestBackpressureFlood(t *testing.T) {
	ranks := bigRanks()
	if testing.Short() {
		ranks = 256
	}
	const burst = 4 // per sender; total far exceeds inboxCap
	w := NewWorld(ranks, Config{})
	var total float64
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			// Let senders saturate the inbox before draining.
			time.Sleep(2 * time.Millisecond)
			sum := 0.0
			for i := 0; i < (r.Size-1)*burst; i++ {
				_, p := r.RecvAny(1)
				sum += p.(float64)
			}
			total = sum
			return
		}
		for b := 0; b < burst; b++ {
			r.Send(0, 1, float64(r.ID))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for id := 1; id < ranks; id++ {
		want += float64(id) * burst
	}
	if total != want {
		t.Fatalf("flood lost messages: got %g want %g", total, want)
	}
}

// TestSelectionTableAgreement is the selection acceptance gate: on the
// benchmark grid, the bucketed table must pick the model-fastest
// topology in at least 80% of the cells (disagreements can only come
// from bucket quantization).
func TestSelectionTableAgreement(t *testing.T) {
	m := DefaultMachine()
	ranksGrid := []int{16, 256, 4096, 10000}
	msgGrid := []int{512, 4096, 65536, 1 << 20, 8 << 20}
	agree, cells := 0, 0
	for _, ranks := range ranksGrid {
		for _, msgBytes := range msgGrid {
			cells++
			exact := m.BestTopology(ranks, msgBytes/8, DefaultSegSize)
			pick := SelectTopology(msgBytes, ranks)
			if pick == exact {
				agree++
			} else {
				t.Logf("msg=%dB ranks=%d: table %v, model %v (model %vx)", msgBytes, ranks, pick, exact,
					m.CollectiveTime(pick, ranks, msgBytes/8, DefaultSegSize, nil)/
						m.CollectiveTime(exact, ranks, msgBytes/8, DefaultSegSize, nil))
			}
		}
	}
	if frac := float64(agree) / float64(cells); frac < 0.8 {
		t.Fatalf("selection table agrees with the model on %d/%d cells (%.0f%% < 80%%)", agree, cells, frac*100)
	}
}

// TestCollectiveTimeModelShape sanity-checks the α·span + β·bytes
// model's qualitative crossovers.
func TestCollectiveTimeModelShape(t *testing.T) {
	m := DefaultMachine()
	// Flat serializes the root: must lose to binomial at scale.
	if m.CollectiveTime(Flat, 4096, 16, 0, nil) <= m.CollectiveTime(Binomial, 4096, 16, 0, nil) {
		t.Error("flat should lose to binomial at 4096 ranks")
	}
	// Small messages are latency-bound: binomial beats rabenseifner.
	if m.CollectiveTime(Binomial, 4096, 8, 0, nil) >= m.CollectiveTime(Rabenseifner, 4096, 8, 0, nil) {
		t.Error("binomial should win small messages at scale")
	}
	// Large messages at scale are bandwidth-bound: rabenseifner beats
	// binomial by ~log n / 2.
	big := 1 << 17
	if m.CollectiveTime(Rabenseifner, 4096, big, DefaultSegSize, nil) >=
		m.CollectiveTime(Binomial, 4096, big, DefaultSegSize, nil) {
		t.Error("rabenseifner should win large messages at scale")
	}
	// The double tree halves the binary tree's per-link load for
	// multi-segment payloads.
	if m.CollectiveTime(DoubleTree, 1024, big, DefaultSegSize, nil) >=
		m.CollectiveTime(BinaryTree, 1024, big, DefaultSegSize, nil) {
		t.Error("double tree should beat single binary tree on large payloads")
	}
	// CanUse mirrors oneCCL's pof2 guard.
	if Rabenseifner.CanUse(4096, 100) || !Rabenseifner.CanUse(4096, 8192) {
		t.Error("rabenseifner CanUse pof2 guard wrong")
	}
	// Every topology parses back from its name.
	for _, topo := range Topologies {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v", topo.String(), got, err)
		}
	}
}

// TestAllReduceBNBitwiseAllTopologies checks AllReduce's shared result
// on every topology: each rank finalizes the state it got back to the
// correctly rounded exact sum, bit for bit.
func TestAllReduceBNBitwiseAllTopologies(t *testing.T) {
	const ranks, perRank = 13, 5
	xs := makeData(ranks*perRank, 17)
	want := math.Float64bits(superacc.Sum(xs))
	op := sum.BinnedAlg.Op()
	for _, topo := range Topologies {
		got := make([]uint64, ranks)
		w := NewWorld(ranks, Config{Jitter: 50 * time.Microsecond, Seed: uint64(topo)})
		if err := w.Run(func(r *Rank) {
			local := op.FoldSlice(nil, xs[r.ID*perRank:(r.ID+1)*perRank])
			got[r.ID] = math.Float64bits(op.Finalize(r.AllReduce(local, op, topo, ArrivalOrder)))
		}); err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		for id, g := range got {
			if g != want {
				t.Errorf("%v rank %d: bits %x want %x", topo, id, g, want)
			}
		}
	}
}
