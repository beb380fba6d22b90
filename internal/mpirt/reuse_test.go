package mpirt

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sum"
	"repro/internal/superacc"
)

// columnSums returns, for each element e, superacc.Sum of element e of
// every rank's vector.
func columnSums(vecs [][]float64) []float64 {
	out := make([]float64, len(vecs[0]))
	col := make([]float64, len(vecs))
	for e := range out {
		for r, v := range vecs {
			col[r] = v[e]
		}
		out[e] = superacc.Sum(col)
	}
	return out
}

// TestWorldReuseAcrossRuns runs 50 back-to-back Runs on one
// non-power-of-two World, alternating BN (arrival order) and ST (fixed
// order) over every topology, each Run a ReduceSum and a VectorReduce
// whose states are recycled from the Runs before. Every BN answer must
// equal the superaccumulator's, and every ST answer the bits of that
// topology's first ST Run.
func TestWorldReuseAcrossRuns(t *testing.T) {
	const ranks, nElem = 13, 37
	xs := makeData(ranks*nElem, 50)
	vecs := chunks(xs, ranks)
	exactVec := columnSums(vecs)
	exact := superacc.Sum(xs)
	bn, st := sum.BinnedAlg.Op(), sum.StandardAlg.Op()
	type answer struct {
		sum float64
		vec []float64
	}
	firstST := map[Topology]answer{}
	w := NewWorld(ranks, Config{})
	for i := 0; i < 50; i++ {
		op, mode := bn, ArrivalOrder
		if i%2 == 1 {
			op, mode = st, FixedOrder
		}
		topo := Topologies[(i/2)%len(Topologies)]
		var got answer
		if err := w.Run(func(r *Rank) {
			if v, ok := r.ReduceSum(0, vecs[r.ID], op, topo, mode); ok {
				got.sum = v
			}
			if v, ok := r.VectorReduce(0, vecs[r.ID], op, topo, mode, 8); ok {
				got.vec = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		want := answer{exact, exactVec}
		if op == st {
			if _, ok := firstST[topo]; !ok {
				firstST[topo] = got
			}
			want = firstST[topo]
		}
		if math.Float64bits(got.sum) != math.Float64bits(want.sum) {
			t.Fatalf("run %d %s %v: ReduceSum %x, want %x", i, op.Name(), topo, math.Float64bits(got.sum), math.Float64bits(want.sum))
		}
		for e := range want.vec {
			if math.Float64bits(got.vec[e]) != math.Float64bits(want.vec[e]) {
				t.Fatalf("run %d %s %v: element %d = %x, want %x", i, op.Name(), topo, e, math.Float64bits(got.vec[e]), math.Float64bits(want.vec[e]))
			}
		}
	}
}

// TestReuseTwiceInOneRun calls VectorReduce and VectorAllReduce twice
// each in one Run, on schedules where a partner still merges into or
// reads a rank's states after the rank's own call returns: the second
// call must not recycle them (the race suite runs this too). The World
// runs twice, so the second Run recycles the first one's states.
func TestReuseTwiceInOneRun(t *testing.T) {
	const ranks, nElem = 11, 9
	xs := makeData(ranks*nElem, 51)
	vecs := chunks(xs, ranks)
	exact := columnSums(vecs)
	op := sum.BinnedAlg.Op()
	w := NewWorld(ranks, Config{Jitter: 20 * time.Microsecond, Seed: 5})
	for run := 0; run < 2; run++ {
		for _, topo := range []Topology{Rabenseifner, RSAllgather, Binomial} {
			got := make([][]float64, ranks)
			if err := w.Run(func(r *Rank) {
				for k := 0; k < 2; k++ {
					if v, ok := r.VectorReduce(k, vecs[r.ID], op, topo, ArrivalOrder, 4); ok && k == 0 {
						got[0] = v
					}
					if v := r.VectorAllReduce(vecs[r.ID], op, topo, ArrivalOrder, 4); k == 1 && r.ID > 0 {
						got[r.ID] = v
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			for id, v := range got {
				for e := range exact {
					if math.Float64bits(v[e]) != math.Float64bits(exact[e]) {
						t.Fatalf("run %d %v rank %d element %d: %g, want %g", run, topo, id, e, v[e], exact[e])
					}
				}
			}
		}
	}
}

// TestWarmWorldAllocs pins a warm World's allocations: BN's 16x64
// VectorReduce and 128x32 ReduceSum, on the binomial tree (ReduceSum in
// both modes) and on the three schedule topologies, allocate no
// 584-byte binned state. A BN state lands in the 640-byte
// size class, which neither Run otherwise uses, and one rank's 64
// leaves take 37 KB: the byte bounds sit far below that slab and below
// one state per rank. Before the states were recycled the vector Run
// took 96 allocations and 696 KB, the scalar one 375 and 102 KB. Each
// rank's children list lives in a buffer the rank keeps (Rank.family);
// allocating it afresh per collective took the counts from 33 to 47 and
// from 129 to 245. So do FixedOrder's arrivals (Rank.fromChildren),
// which took the scalar count from 129 to 193. The ranks run on parked
// workers, so the scalar Run allocates nothing; starting a goroutine
// per rank cost 128 allocations. The vector Run's one allocation is the
// finalized vector. A message is a pointer to the sender's working
// vector, whose header the rank keeps for the Run (spare): boxing each
// sent slice header cost the binomial vector Run 15 allocations, and
// with Reduce's fresh one-state vectors the scalar Runs took 270
// (Rabenseifner), 382 (RSAllgather) and 256 (DoubleTree).
func TestWarmWorldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	op := sum.BinnedAlg.Op()
	reduceSum := func(topo Topology, mode Mode) func(xs [][]float64) func(*Rank) {
		return func(xs [][]float64) func(*Rank) {
			return func(r *Rank) { r.ReduceSum(0, xs[r.ID], op, topo, mode) }
		}
	}
	vectorReduce := func(topo Topology) func(xs [][]float64) func(*Rank) {
		return func(xs [][]float64) func(*Rank) {
			return func(r *Rank) { r.VectorReduce(0, xs[r.ID], op, topo, ArrivalOrder, 0) }
		}
	}
	type allocCase struct {
		name   string
		ranks  int
		body   func(xs [][]float64) func(*Rank)
		allocs float64 // per Run
		bytes  uint64  // per Run
	}
	cases := []allocCase{
		{"VectorReduce 16x64 binomial", 16, vectorReduce(Binomial), 1, 1 << 10},
		{"ReduceSum 128x32 binomial arrival-order", 128, reduceSum(Binomial, ArrivalOrder), 0, 1 << 10},
		{"ReduceSum 128x32 binomial fixed-order", 128, reduceSum(Binomial, FixedOrder), 0, 1 << 10},
	}
	for _, topo := range []Topology{Rabenseifner, RSAllgather, DoubleTree} {
		cases = append(cases,
			allocCase{"VectorReduce 16x64 " + topo.String(), 16, vectorReduce(topo), 1, 1 << 10},
			allocCase{"ReduceSum 128x32 " + topo.String(), 128, reduceSum(topo, ArrivalOrder), 0, 1 << 10})
	}
	for _, c := range cases {
		nElem := 64
		if c.ranks == 128 {
			nElem = 32
		}
		body := c.body(chunks(makeData(c.ranks*nElem, 52), c.ranks))
		w := NewWorld(c.ranks, Config{})
		run := func() {
			if err := w.Run(body); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > c.allocs {
			t.Errorf("%s: %v allocs a warm Run, want <= %v", c.name, allocs, c.allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > c.bytes {
			t.Errorf("%s: %d bytes a warm Run, want <= %d", c.name, b, c.bytes)
		}
		for i, s := range after.BySize {
			if s.Size == 640 {
				if n := s.Mallocs - before.BySize[i].Mallocs; n >= runs {
					t.Errorf("%s: %d 640-byte allocations in %d warm Runs: BN states are not recycled", c.name, n, runs)
				}
			}
		}
	}
}

// TestAbortUnblocksPeers pins Run's panic contract when the panicking
// rank's peers wait on it: each Run returns the panic's error within
// the deadline, and the World then runs a BN ReduceSum to the
// superaccumulator's bits, so an abort leaves no stale message or
// state behind.
func TestAbortUnblocksPeers(t *testing.T) {
	bodies := []struct {
		name string
		body func(r *Rank, xs []float64)
		bad  func(size int) int // the rank that panics
	}{
		{"Barrier", func(r *Rank, _ []float64) { r.Barrier() }, func(int) int { return 1 }},
		{"ReduceSum/flat", func(r *Rank, xs []float64) {
			r.ReduceSum(0, xs, sum.BinnedAlg.Op(), Flat, ArrivalOrder)
		}, func(int) int { return 0 }},
		{"VectorReduce/rabenseifner", func(r *Rank, xs []float64) {
			r.VectorReduce(0, xs, sum.BinnedAlg.Op(), Rabenseifner, ArrivalOrder, 0)
		}, func(size int) int { return size - 1 }},
	}
	for _, size := range []int{4, 128} {
		xs := makeData(size*8, 53)
		parts := chunks(xs, size)
		exact := superacc.Sum(xs)
		w := NewWorld(size, Config{})
		for i := 0; i < 2*len(bodies); i++ {
			b, bad := bodies[i/2], bodies[i/2].bad(size)
			// The late panic comes after its peers have filled the
			// panicking rank's inbox, which then never drains.
			late := i%2 == 1
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(r *Rank) {
					if r.ID == bad {
						if late {
							time.Sleep(20 * time.Millisecond)
						}
						panic("boom")
					}
					// Every rank runs the collective twice, so a rank
					// that finishes the first before the abort still
					// waits on the panicked rank in the second.
					b.body(r, parts[r.ID])
					b.body(r, parts[r.ID])
				})
			}()
			select {
			case err := <-done:
				if want := fmt.Sprintf("rank %d panicked: boom", bad); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%d ranks %s (late %v): Run returned %v, want the error %q", size, b.name, late, err, want)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%d ranks %s (late %v): Run did not return after rank %d panicked", size, b.name, late, bad)
			}
			var got float64
			if err := w.Run(func(r *Rank) {
				if v, ok := r.ReduceSum(0, parts[r.ID], sum.BinnedAlg.Op(), Rabenseifner, ArrivalOrder); ok {
					got = v
				}
			}); err != nil {
				t.Fatal(err)
			}
			if got != exact {
				t.Fatalf("%d ranks after %s abort: BN ReduceSum %g, want %g", size, b.name, got, exact)
			}
		}
	}
}

// TestNegativeUserTag pins that a user message cannot pose as the abort
// notice: Send rejects a negative tag, which fails the Run with an
// error instead of silently unwinding the receiver.
func TestNegativeUserTag(t *testing.T) {
	err := NewWorld(2, Config{}).Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, abortTag, nil)
		} else {
			r.Recv(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "negative user tag") {
		t.Fatalf("Run returned %v, want the negative-tag error", err)
	}
}
