// Adaptive distributed reduction: 32 simulated ranks hold chunks of a
// global vector and reduce it with arrival-order (nondeterministic)
// collectives — the exascale scenario of the paper. A fixed ST operator
// gives a different answer on every run; the intelligent runtime
// profiles the data with one cheap AllReduce, all ranks agree on the
// cheapest acceptable operator, and the global sum becomes stable.
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/mpirt"
	"repro/internal/selector"
	"repro/internal/sum"
)

const (
	ranks  = 32
	perRnk = 4096
	runs   = 6
)

func main() {
	// A hostile global vector: exact sum zero, wide dynamic range.
	global := gen.SumZeroSeries(ranks*perRnk, 32, 42)
	chunks := make([][]float64, ranks)
	for i := range chunks {
		chunks[i] = global[i*perRnk : (i+1)*perRnk]
	}

	fmt.Printf("global vector: %d values over %d ranks, exact sum 0\n\n", len(global), ranks)

	fmt.Println("fixed ST operator, arrival-order binomial reduce:")
	runMany(chunks, func(r *mpirt.Rank) (float64, bool) {
		return r.ReduceSum(0, chunks[r.ID], sum.StandardAlg.Op(), mpirt.Binomial, mpirt.ArrivalOrder)
	})

	fmt.Println("\nintelligent runtime (tolerance 0 = bitwise), same nondeterministic collectives:")
	sel := selector.New(0)
	runMany(chunks, func(r *mpirt.Rank) (float64, bool) {
		v, alg, ok := selector.AdaptiveReduce(r, 0, chunks[r.ID], sel, mpirt.Binomial, mpirt.ArrivalOrder)
		if ok {
			fmt.Printf("  (ranks agreed on %s)", alg)
		}
		return v, ok
	})

	// The same answer falls out of the one-shot serial entry point: at a
	// bitwise tolerance the selector lands on BN, the cheapest
	// reproducible rung — order-invariant bits at a fraction of PR's
	// cost — and BN is the engine behind ExactSum.
	total := repro.ExactSum(global)
	fmt.Printf("\nserial ExactSum (the BN engine): sum = %+.17e\n", total)
}

// runMany repeats the reduction with per-run jitter seeds and prints
// each run's root result.
func runMany(chunks [][]float64, body func(*mpirt.Rank) (float64, bool)) {
	distinct := map[float64]bool{}
	for run := 0; run < runs; run++ {
		w := mpirt.NewWorld(len(chunks), mpirt.Config{
			Jitter: 200 * time.Microsecond,
			Seed:   uint64(run) * 977,
		})
		var got float64
		if err := w.Run(func(r *mpirt.Rank) {
			if v, ok := body(r); ok {
				got = v
			}
		}); err != nil {
			panic(err)
		}
		distinct[got] = true
		fmt.Printf("  run %d: sum = %+.17e\n", run+1, got)
	}
	fmt.Printf("  -> %d distinct result(s) across %d runs\n", len(distinct), runs)
}
