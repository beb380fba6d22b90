// Distributed reduction under nondeterministic arrival order: 32
// simulated ranks hold chunks of a global vector and reduce it with an
// arrival-order binomial collective — the exascale scenario of the
// paper, where the merge order changes from run to run. A plain ST
// operator gives a different answer on different runs; the binned (BN)
// operator gives the same bits on every run, in one collective round,
// and they are the bits of the serial exact sum.
package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/mpirt"
	"repro/internal/reduce"
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

	fmt.Println("ST operator, arrival-order binomial reduce:")
	runMany(chunks, sum.StandardAlg.Op())

	fmt.Println("\nBN operator, same nondeterministic collectives:")
	bn := runMany(chunks, sum.BinnedAlg.Op())

	total := repro.ExactSum(global)
	fmt.Printf("\nserial ExactSum (the BN engine): sum = %+.17e; bitwise equal to the BN reduce: %v\n",
		total, len(bn) == 1 && bn[math.Float64bits(total)])
}

// runMany repeats the reduction with per-run jitter seeds, prints each
// run's root result and returns the set of distinct result bits.
func runMany(chunks [][]float64, op reduce.Op) map[uint64]bool {
	distinct := map[uint64]bool{}
	for run := 0; run < runs; run++ {
		w := mpirt.NewWorld(len(chunks), mpirt.Config{
			Jitter: 200 * time.Microsecond,
			Seed:   uint64(run) * 977,
		})
		var got float64
		if err := w.Run(func(r *mpirt.Rank) {
			if v, ok := r.ReduceSum(0, chunks[r.ID], op, mpirt.Binomial, mpirt.ArrivalOrder); ok {
				got = v
			}
		}); err != nil {
			panic(err)
		}
		distinct[math.Float64bits(got)] = true
		fmt.Printf("  run %d: sum = %+.17e\n", run+1, got)
	}
	fmt.Printf("  -> %d distinct result(s) across %d runs\n", len(distinct), runs)
	return distinct
}
