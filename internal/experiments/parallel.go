package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/sum"
	"repro/internal/superacc"
)

// ParallelExtResult measures the deterministic chunked parallel engine:
// per-algorithm parallel-vs-sequential throughput on one hostile input,
// plus a determinism audit — the engine's entire value proposition is
// that, unlike the nondeterministic reduction trees of the paper's
// Section V-B, adding workers changes nothing but the wall clock.
type ParallelExtResult struct {
	N       int
	Workers []int
	Rows    []ParallelExtRow
	// ExactStable reports that the engine's BN sum matched the
	// superaccumulator oracle at every worker count.
	ExactStable bool
}

// ParallelExtRow is one algorithm's measurement.
type ParallelExtRow struct {
	Alg sum.Algorithm
	// SeqNS and ParNS are ns per full reduction, sequential plan vs the
	// engine at the largest worker count.
	SeqNS, ParNS float64
	// Speedup is SeqNS/ParNS (bounded by the host's core count).
	Speedup float64
	// BitwiseStable reports that every worker count produced bits
	// identical to the sequential execution of the same plan.
	BitwiseStable bool
}

// ID implements Result.
func (r ParallelExtResult) ID() string { return "ext-parallel" }

// AllBitwiseStable reports whether every algorithm (and the exact BN sum)
// was bitwise-identical across all tested worker counts.
func (r ParallelExtResult) AllBitwiseStable() bool {
	for _, row := range r.Rows {
		if !row.BitwiseStable {
			return false
		}
	}
	return r.ExactStable
}

// String renders the table.
func (r ParallelExtResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel engine: n=%d, workers %v (host-bound)\n", r.N, r.Workers)
	fmt.Fprintf(&b, "%-4s %12s %12s %8s %s\n", "alg", "seq ns/op", "par ns/op", "speedup", "bitwise-stable")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-4s %12.0f %12.0f %7.2fx %v\n",
			row.Alg, row.SeqNS, row.ParNS, row.Speedup, row.BitwiseStable)
	}
	fmt.Fprintf(&b, "exact (BN vs superacc) stable: %v\n", r.ExactStable)
	b.WriteString("determinism contract: fixed chunks + fixed merge tree => identical bits at any worker count\n")
	return b.String()
}

// ParallelExt runs the experiment.
func ParallelExt(cfg Config) ParallelExtResult {
	n := cfg.pick(1<<18, 1<<21)
	reps := cfg.pick(3, 5)
	workers := []int{1, 2, 4, 8}
	res := ParallelExtResult{N: n, Workers: workers, ExactStable: true}
	xs := gen.SumZeroSeries(n, 32, cfg.Seed+0x9a7)

	for _, alg := range sum.PaperAlgorithms {
		pcfg := parallel.Config{}
		row := ParallelExtRow{Alg: alg, BitwiseStable: true}
		ref := parallel.SeqSum(alg, xs, pcfg)
		for _, w := range workers {
			pcfg.Workers = w
			if got := parallel.Sum(alg, xs, pcfg); math.Float64bits(got) != math.Float64bits(ref) {
				row.BitwiseStable = false
			}
		}
		row.SeqNS = timeNS(reps, func() { sink = parallel.SeqSum(alg, xs, parallel.Config{}) })
		row.ParNS = timeNS(reps, func() { sink = parallel.Sum(alg, xs, parallel.Config{Workers: workers[len(workers)-1]}) })
		if row.ParNS > 0 {
			row.Speedup = row.SeqNS / row.ParNS
		}
		res.Rows = append(res.Rows, row)
	}

	exactRef := superacc.Sum(xs)
	for _, w := range workers {
		got := parallel.Sum(sum.BinnedAlg, xs, parallel.Config{Workers: w})
		if math.Float64bits(got) != math.Float64bits(exactRef) {
			res.ExactStable = false
		}
	}
	return res
}

// sink defeats dead-code elimination in the timing loops.
var sink float64

// timeNS times f over reps runs and returns the fastest ns per run (the
// usual minimum-of-reps estimator, robust to scheduling noise).
func timeNS(reps int, f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := float64(time.Since(t0).Nanoseconds()); d < best {
			best = d
		}
	}
	return best
}
