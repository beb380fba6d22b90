package mpirt

import (
	"fmt"
	"testing"

	"repro/internal/sum"
)

// BenchmarkCollective runs one full scalar BN reduction per iteration
// for every topology at the rank scales the selection table targets,
// and reports the closed-form model cost alongside (modelcost, in
// machine cost units) so BENCH_mpirt.json carries the wall-clock and
// the modeled cost side by side — the artifact the selection-table
// agreement gate is reviewed against. Each iteration builds a cold
// World; spawns/op counts the goroutines it starts beyond the pool's
// parked workers.
func BenchmarkCollective(b *testing.B) {
	op := sum.BinnedAlg.Op()
	m := DefaultMachine()
	for _, ranks := range []int{16, 256, 4096, 10000} {
		xs := makeData(ranks, uint64(ranks))
		for _, topo := range Topologies {
			b.Run(fmt.Sprintf("topo=%s/ranks=%d", topo, ranks), func(b *testing.B) {
				b.ReportMetric(m.CollectiveTime(topo, ranks, 1, DefaultSegSize, nil), "modelcost")
				b.ReportAllocs()
				s0 := spawns.Load()
				for i := 0; i < b.N; i++ {
					w := NewWorld(ranks, Config{})
					if err := w.Run(func(r *Rank) {
						r.ReduceSum(0, xs[r.ID:r.ID+1], op, topo, ArrivalOrder)
					}); err != nil {
						b.Fatal(err)
					}
				}
				reportSpawns(b, s0)
			})
		}
	}
}

// BenchmarkCollectiveVector reduces a segmented BN state vector, where
// the bandwidth-optimal schedules earn their keep: the model cost is
// evaluated at the real element count so the crossovers in
// BENCH_mpirt.json can be compared against measured wall-clock.
func BenchmarkCollectiveVector(b *testing.B) {
	const ranks, nElem = 64, 512
	op := sum.BinnedAlg.Op()
	xs := makeData(ranks*nElem, 7)
	m := DefaultMachine()
	for _, topo := range Topologies {
		b.Run(fmt.Sprintf("topo=%s/ranks=%d/elems=%d", topo, ranks, nElem), func(b *testing.B) {
			b.ReportMetric(m.CollectiveTime(topo, ranks, nElem, DefaultSegSize, nil), "modelcost")
			for i := 0; i < b.N; i++ {
				w := NewWorld(ranks, Config{})
				if err := w.Run(func(r *Rank) {
					r.VectorReduce(0, xs[r.ID*nElem:(r.ID+1)*nElem], op, topo, ArrivalOrder, DefaultSegSize)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectiveWarm runs the steady state of a long-lived World:
// perfbench collective-sim's 128x32 ReduceSum and 16x64 VectorReduce
// per topology and operator, each on a World warmed by one Run, so the
// reported allocations are what a Run costs once its ranks recycle the
// states they lifted and folded before, and spawns/op (goroutines
// started per Run) stays 0 once the pool holds the World's workers.
func BenchmarkCollectiveWarm(b *testing.B) {
	for _, alg := range []sum.Algorithm{sum.BinnedAlg, sum.StandardAlg} {
		op := alg.Op()
		for _, kind := range []struct {
			name         string
			ranks, nElem int
		}{{"sum", 128, 32}, {"vector", 16, 64}} {
			parts := chunks(makeData(kind.ranks*kind.nElem, 9), kind.ranks)
			for _, topo := range Topologies {
				body := func(r *Rank) { r.ReduceSum(0, parts[r.ID], op, topo, ArrivalOrder) }
				if kind.name == "vector" {
					body = func(r *Rank) { r.VectorReduce(0, parts[r.ID], op, topo, ArrivalOrder, 0) }
				}
				b.Run(fmt.Sprintf("op=%v/kind=%s/topo=%s/ranks=%d", alg, kind.name, topo, kind.ranks), func(b *testing.B) {
					w := NewWorld(kind.ranks, Config{})
					if err := w.Run(body); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					s0 := spawns.Load()
					for i := 0; i < b.N; i++ {
						if err := w.Run(body); err != nil {
							b.Fatal(err)
						}
					}
					reportSpawns(b, s0)
				})
			}
		}
	}
}

// reportSpawns reports the worker goroutines started since s0 per
// iteration as spawns/op.
func reportSpawns(b *testing.B, s0 uint64) {
	b.ReportMetric(float64(spawns.Load()-s0)/float64(b.N), "spawns/op")
}
