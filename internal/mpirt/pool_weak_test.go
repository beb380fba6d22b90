//go:build go1.24

package mpirt

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/sum"
)

// TestPoolReleasesDroppedWorld pins that a parked worker holds no
// reference to its last rank: a World dropped after its Runs, and the
// data its body captured, are collected while the World's workers sit
// parked in the pool.
func TestPoolReleasesDroppedWorld(t *testing.T) {
	const ranks = 64
	world, data := func() (weak.Pointer[World], weak.Pointer[[][]float64]) {
		parts := chunks(makeData(ranks*16, 57), ranks)
		w := NewWorld(ranks, Config{})
		for run := 0; run < 2; run++ {
			if err := w.Run(func(r *Rank) {
				r.ReduceSum(0, parts[r.ID], sum.BinnedAlg.Op(), Rabenseifner, FixedOrder)
			}); err != nil {
				t.Fatal(err)
			}
		}
		return weak.Make(w), weak.Make(&parts)
	}()
	if parkedCount() < ranks {
		t.Fatalf("%d workers parked after a %d-rank Run, want at least %d", parkedCount(), ranks, ranks)
	}
	runtime.GC()
	runtime.GC()
	if world.Value() != nil {
		t.Error("a dropped World is still reachable while its workers are parked")
	}
	if data.Value() != nil {
		t.Error("the data a dropped World's body captured is still reachable while its workers are parked")
	}
}
