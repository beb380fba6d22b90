package mpirt

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/sum"
	"repro/internal/superacc"
)

// parkedCount is the number of idle workers in the pool.
func parkedCount() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle)
}

// TestPoolWarmRunSpawnsNone pins the worker pool's reuse: after a
// warm-up Run, the next Run of the same 128-rank World hands every rank
// to a parked worker and starts no goroutine. Workers rejoin the pool
// before their ranks count as done, so the back-to-back Run finds all
// of them.
func TestPoolWarmRunSpawnsNone(t *testing.T) {
	const ranks = 128
	parts := chunks(makeData(ranks*32, 54), ranks)
	op := sum.BinnedAlg.Op()
	for _, topo := range Topologies {
		w := NewWorld(ranks, Config{})
		body := func(r *Rank) { r.ReduceSum(0, parts[r.ID], op, topo, ArrivalOrder) }
		for run := 0; run < 3; run++ {
			before := spawns.Load()
			if err := w.Run(body); err != nil {
				t.Fatal(err)
			}
			if n := spawns.Load() - before; run > 0 && n != 0 {
				t.Errorf("%v: warm Run %d started %d goroutines, want 0", topo, run, n)
			}
			if n := parkedCount(); n < ranks {
				t.Errorf("%v: %d workers parked when Run %d returned, want at least %d", topo, n, run, ranks)
			}
		}
	}
}

// TestPoolParkedBound pins the pool's bound: a 300-rank Run and then a
// 16-rank Run leave parkedMax workers parked, and every worker beyond
// them exits instead of lingering.
func TestPoolParkedBound(t *testing.T) {
	others := runtime.NumGoroutine() - parkedCount()
	for _, ranks := range []int{300, 16} {
		if err := NewWorld(ranks, Config{}).Run(func(r *Rank) { r.Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	if n := parkedCount(); n != parkedMax {
		t.Fatalf("%d workers parked after a 300-rank Run, want %d", n, parkedMax)
	}
	// The workers beyond the bound have marked their ranks done and are
	// returning; wait for them to be gone.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine()-parkedCount() > others; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines besides %d parked workers, want at most %d", runtime.NumGoroutine()-parkedCount(), parkedCount(), others)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolGoexitRank pins Run's contract for a rank body that calls
// runtime.Goexit: Run returns without error, the rank's worker dies
// instead of parking, and the World's next Run still reduces BN to the
// superaccumulator's bits.
func TestPoolGoexitRank(t *testing.T) {
	const ranks = 16
	xs := makeData(ranks*8, 55)
	parts := chunks(xs, ranks)
	w := NewWorld(ranks, Config{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r *Rank) {
			if r.ID == 3 {
				runtime.Goexit()
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run with a Goexit rank returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after a rank called runtime.Goexit")
	}
	var got float64
	if err := w.Run(func(r *Rank) {
		if v, ok := r.ReduceSum(0, parts[r.ID], sum.BinnedAlg.Op(), Rabenseifner, ArrivalOrder); ok {
			got = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	if exact := superacc.Sum(xs); math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("BN ReduceSum after a Goexit rank = %x, want %x", math.Float64bits(got), math.Float64bits(exact))
	}
}

// TestColdWorldSpareAllocs pins the inline first spare: on fresh
// Worlds, folding a rank's local state costs one allocation per rank,
// the BN state itself, over an empty Run of the same size. Keeping the
// spares in a list allocated per rank cost two.
func TestColdWorldSpareAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const ranks = 128
	parts := chunks(makeData(ranks*32, 56), ranks)
	op := sum.BinnedAlg.Op()
	cold := func(body func(*Rank)) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := NewWorld(ranks, Config{}).Run(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	empty := cold(func(*Rank) {})
	fold := cold(func(r *Rank) { r.localState(op, parts[r.ID]) })
	if perRank := (fold - empty) / ranks; perRank > 1 {
		t.Errorf("folding on a fresh World: %v allocations per rank over an empty Run, want <= 1", perRank)
	}
}
