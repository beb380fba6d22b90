package mpirt

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/sum"
)

func chunks(xs []float64, parts int) [][]float64 {
	out := make([][]float64, parts)
	per := (len(xs) + parts - 1) / parts
	for i := range out {
		lo := i * per
		hi := lo + per
		if lo > len(xs) {
			lo = len(xs)
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		out[i] = xs[lo:hi]
	}
	return out
}

func makeData(n int, seed uint64) []float64 {
	r := fpu.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(30)-15)
		if r.Bool() {
			v = -v
		}
		xs[i] = v
	}
	return xs
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, 42.0)
		} else {
			if got := r.Recv(0, 7); got.(float64) != 42.0 {
				panic("bad payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBuffersOutOfOrder(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, "first")
			r.Send(1, 2, "second")
		} else {
			// Ask for tag 2 first: tag 1 must be buffered, not lost.
			if got := r.Recv(0, 2); got.(string) != "second" {
				panic("tag 2 wrong")
			}
			if got := r.Recv(0, 1); got.(string) != "first" {
				panic("tag 1 lost")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 8
	w := NewWorld(n, Config{})
	var before, after int32
	err := w.Run(func(r *Rank) {
		atomic.AddInt32(&before, 1)
		r.Barrier()
		if atomic.LoadInt32(&before) != n {
			panic("barrier released early")
		}
		atomic.AddInt32(&after, 1)
		r.Barrier()
		if atomic.LoadInt32(&after) != n {
			panic("second barrier released early")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastAllTopSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33} {
		w := NewWorld(n, Config{})
		err := w.Run(func(r *Rank) {
			var payload any
			if r.ID == 2%n {
				payload = "hello"
			}
			got := r.Broadcast(2%n, payload)
			if got.(string) != "hello" {
				panic("broadcast payload wrong")
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestGather(t *testing.T) {
	const n = 9
	w := NewWorld(n, Config{})
	err := w.Run(func(r *Rank) {
		got := r.Gather(3, r.ID*10)
		if r.ID != 3 {
			if got != nil {
				panic("non-root got gather result")
			}
			return
		}
		for i, v := range got {
			if v.(int) != i*10 {
				panic("gather misordered")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceCorrectAllTopologies(t *testing.T) {
	xs := makeData(10000, 1)
	ref := bigref.SumFloat64(xs)
	for _, n := range []int{1, 2, 5, 8, 16} {
		parts := chunks(xs, n)
		for _, topo := range Topologies {
			for _, mode := range []Mode{FixedOrder, ArrivalOrder} {
				w := NewWorld(n, Config{})
				var got float64
				err := w.Run(func(r *Rank) {
					v, ok := r.ReduceSum(0, parts[r.ID], sum.CompositeAlg.Op(), topo, mode)
					if ok {
						got = v
					} else if r.ID == 0 {
						panic("root did not get result")
					}
				})
				if err != nil {
					t.Fatalf("n=%d %v %v: %v", n, topo, mode, err)
				}
				if math.Abs(got-ref) > 1e-9*math.Abs(ref)+1e-12 {
					t.Errorf("n=%d %v %v: got %g want %g", n, topo, mode, got, ref)
				}
			}
		}
	}
}

func TestReduceNonRootGetsNothing(t *testing.T) {
	w := NewWorld(4, Config{})
	err := w.Run(func(r *Rank) {
		st := r.Reduce(2, sum.StandardAlg.Op().Leaf(float64(r.ID)), sum.StandardAlg.Op(), Binomial, FixedOrder)
		if r.ID == 2 {
			if st == nil {
				panic("root missing state")
			}
			if got := sum.StandardAlg.Op().Finalize(st); got != 6 {
				panic("wrong reduce value")
			}
		} else if st != nil {
			panic("non-root received state")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 6
	w := NewWorld(n, Config{})
	err := w.Run(func(r *Rank) {
		op := sum.NeumaierAlg.Op()
		st := r.AllReduce(op.Leaf(float64(r.ID+1)), op, Binomial, FixedOrder)
		if got := op.Finalize(st); got != 21 {
			panic("allreduce wrong on some rank")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPRReproducibleUnderJitterAndArrival(t *testing.T) {
	xs := makeData(8000, 3)
	parts := chunks(xs, 16)
	op := sum.PreroundedAlg.Op()
	results := map[float64]bool{}
	for trial := 0; trial < 8; trial++ {
		w := NewWorld(16, Config{Jitter: 200 * time.Microsecond, Seed: uint64(trial)})
		var got float64
		if err := w.Run(func(r *Rank) {
			if v, ok := r.ReduceSum(0, parts[r.ID], op, Binomial, ArrivalOrder); ok {
				got = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		results[got] = true
	}
	if len(results) != 1 {
		t.Errorf("PR produced %d distinct results under arrival-order jitter", len(results))
	}
}

func TestSTVariesUnderArrivalOrder(t *testing.T) {
	// An ill-conditioned cancelling set: arrival-order ST reduction
	// should produce multiple distinct values across jitter seeds.
	r := fpu.NewRNG(4)
	xs := make([]float64, 0, 16384)
	for i := 0; i < 8192; i++ {
		v := math.Ldexp(r.Float64()+0.5, r.Intn(40)-20)
		xs = append(xs, v, -v)
	}
	r.Shuffle(xs)
	parts := chunks(xs, 32)
	op := sum.StandardAlg.Op()
	results := map[float64]bool{}
	for trial := 0; trial < 12; trial++ {
		w := NewWorld(32, Config{Jitter: 300 * time.Microsecond, Seed: uint64(trial * 7)})
		var got float64
		if err := w.Run(func(rk *Rank) {
			if v, ok := rk.ReduceSum(0, parts[rk.ID], op, Flat, ArrivalOrder); ok {
				got = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		results[got] = true
	}
	if len(results) < 2 {
		t.Skip("scheduler produced identical arrival orders; inherently timing-dependent")
	}
}

func TestFixedOrderDeterministic(t *testing.T) {
	xs := makeData(4000, 5)
	parts := chunks(xs, 8)
	op := sum.StandardAlg.Op()
	results := map[float64]bool{}
	for trial := 0; trial < 6; trial++ {
		w := NewWorld(8, Config{Jitter: 200 * time.Microsecond, Seed: uint64(trial)})
		var got float64
		if err := w.Run(func(r *Rank) {
			if v, ok := r.ReduceSum(0, parts[r.ID], op, Binomial, FixedOrder); ok {
				got = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		results[got] = true
	}
	if len(results) != 1 {
		t.Errorf("fixed-order reduce nondeterministic: %d distinct values", len(results))
	}
}

func TestFamilyStructure(t *testing.T) {
	// Every rank except the root must have exactly one parent, and the
	// union of children lists must cover all non-root ranks exactly once.
	// Only the single-tree topologies have a family(); the schedule
	// topologies are validated structurally in collective_test.go.
	for _, topo := range treeTopologies {
		for _, n := range []int{1, 2, 3, 8, 13, 16} {
			for _, root := range []int{0, 1, n - 1} {
				if root < 0 || root >= n {
					continue
				}
				parents := make([]int, n)
				childCount := make([]int, n)
				w := NewWorld(n, Config{})
				var mu [64]int32
				_ = mu
				err := w.Run(func(r *Rank) {
					p, cs := r.family(topo, root)
					parents[r.ID] = p
					for range cs {
					}
					childCount[r.ID] = len(cs)
				})
				if err != nil {
					t.Fatal(err)
				}
				if parents[root] != -1 {
					t.Errorf("%v n=%d root=%d: root has parent %d", topo, n, root, parents[root])
				}
				total := 0
				for _, c := range childCount {
					total += c
				}
				if total != n-1 {
					t.Errorf("%v n=%d root=%d: %d child edges, want %d", topo, n, root, total, n-1)
				}
				for id, p := range parents {
					if id != root && (p < 0 || p >= n) {
						t.Errorf("%v n=%d root=%d: rank %d parent %d invalid", topo, n, root, id, p)
					}
				}
			}
		}
	}
}

func TestPanicPropagatesAsError(t *testing.T) {
	w := NewWorld(3, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
		// Other ranks must not deadlock: they do no communication.
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestInvalidWorldAndSend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0, Config{})
}

func TestLocalStateEmpty(t *testing.T) {
	op := sum.KahanAlg.Op()
	if got := op.Finalize(LocalState(op, nil)); got != 0 {
		t.Errorf("empty local state = %g", got)
	}
}

func TestAllGather(t *testing.T) {
	const n = 7
	w := NewWorld(n, Config{})
	err := w.Run(func(r *Rank) {
		got := r.AllGather(r.ID * 3)
		if len(got) != n {
			panic("allgather length")
		}
		for i, v := range got {
			if v.(int) != i*3 {
				panic("allgather misordered")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	const n = 5
	w := NewWorld(n, Config{})
	err := w.Run(func(r *Rank) {
		var items []any
		if r.ID == 2 {
			for i := 0; i < n; i++ {
				items = append(items, i*i)
			}
		}
		got := r.Scatter(2, items)
		if got.(int) != r.ID*r.ID {
			panic("scatter wrong item")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterWrongCountPanics(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Scatter(0, []any{1}) // wrong length -> rank panic
		} else {
			// Rank 1 would block forever waiting for its item; detect
			// the root's failure instead by doing nothing.
		}
	})
	if err == nil {
		t.Fatal("expected error from mis-sized scatter")
	}
}

// TestRunRankSlab pins World.Run's per-run cost and rank state: an
// empty run allocates about one block per rank (its goroutine), and
// each rank's jitter stream is the one its seed derivation names.
func TestRunRankSlab(t *testing.T) {
	const n = 128
	w := NewWorld(n, Config{Seed: 77})
	body := func(r *Rank) {}
	if allocs := testing.AllocsPerRun(20, func() { _ = w.Run(body) }); allocs > n+16 {
		t.Errorf("empty %d-rank Run: %v allocs, want <= %d", n, allocs, n+16)
	}
	first := make([]float64, n)
	if err := w.Run(func(r *Rank) { first[r.ID] = r.rng.Float64() }); err != nil {
		t.Fatal(err)
	}
	for id, got := range first {
		if want := fpu.NewRNG(77 ^ (uint64(id)+1)*0x9e3779b97f4a7c15).Float64(); got != want {
			t.Fatalf("rank %d jitter stream starts at %g, want %g", id, got, want)
		}
	}
}
