package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/mpirt"
	"repro/internal/sum"
	"repro/internal/textplot"
)

// Fig45Result reproduces Figs 4 and 5: wall-clock time of the
// local-sum + global-reduce pattern for the four algorithms, and the
// performance penalties of K/CP/PR relative to ST. The paper ran 20
// repetitions of a 10^6-element local reduction plus MPI_Reduce with
// custom operators on a 48-core node; we run the same pattern over the
// simulated communicator with goroutine ranks. Absolute times differ
// from the paper's hardware; the cost ladder ST < K < CP < PR is the
// reproduced artifact.
type Fig45Result struct {
	N, Ranks, Reps int
	// Times[alg] is the mean wall-clock duration of one full reduction.
	Times map[sum.Algorithm]time.Duration
	// Sums[alg] records the computed result (sanity: all near zero for
	// the sum-to-zero input series).
	Sums map[sum.Algorithm]float64
}

// Fig45 runs the timing experiment. Paper scale: n=10^6 per rank,
// 20 repetitions with a warmed cache.
func Fig45(cfg Config) Fig45Result {
	n := cfg.pick(1<<17, 1<<20)
	reps := cfg.pick(5, 20)
	const ranks = 8
	res := Fig45Result{
		N:     n,
		Ranks: ranks,
		Reps:  reps,
		Times: make(map[sum.Algorithm]time.Duration, len(sum.PaperAlgorithms)),
		Sums:  make(map[sum.Algorithm]float64, len(sum.PaperAlgorithms)),
	}
	// Per-rank chunks of a series that sums to zero exactly (dr=32),
	// generated once and reused with a warmed cache, as in the paper.
	chunks := make([][]float64, ranks)
	for i := range chunks {
		chunks[i] = gen.SumZeroSeries(n/ranks, 32, cfg.Seed+uint64(i))
	}
	for _, alg := range sum.PaperAlgorithms {
		// Warm-up pass (outside timing).
		runReduction(chunks, alg)
		start := time.Now()
		var last float64
		for rep := 0; rep < reps; rep++ {
			last = runReduction(chunks, alg)
		}
		res.Times[alg] = time.Since(start) / time.Duration(reps)
		res.Sums[alg] = last
	}
	return res
}

// runReduction executes one local-sum + global-reduce cycle: each rank
// folds its chunk with the operator's native batch loop (FoldSlice) and
// the partial states merge up a binomial tree.
func runReduction(chunks [][]float64, alg sum.Algorithm) float64 {
	op := alg.Op()
	w := mpirt.NewWorld(len(chunks), mpirt.Config{})
	var out float64
	err := w.Run(func(r *mpirt.Rank) {
		local := op.FoldSlice(chunks[r.ID])
		if st := r.Reduce(0, local, op, mpirt.Binomial, mpirt.FixedOrder); st != nil {
			out = op.Finalize(st)
		}
	})
	if err != nil {
		panic(err)
	}
	return out
}

// ID implements Result.
func (Fig45Result) ID() string { return "fig4+fig5" }

// Penalty returns time(alg)/time(ST) — Fig 5's quantity.
func (r Fig45Result) Penalty(alg sum.Algorithm) float64 {
	st := r.Times[sum.StandardAlg]
	if st == 0 {
		return 0
	}
	return float64(r.Times[alg]) / float64(st)
}

// LadderHolds reports whether the measured cost ordering matches the
// paper's ST <= K <= CP <= PR (with a fractional tolerance for timer
// noise, e.g. 0.15 allows 15% inversions).
func (r Fig45Result) LadderHolds(tolerance float64) bool {
	order := sum.PaperAlgorithms
	for i := 1; i < len(order); i++ {
		a, b := r.Times[order[i-1]], r.Times[order[i]]
		if float64(b) < float64(a)*(1-tolerance) {
			return false
		}
	}
	return true
}

// String renders Fig 4 (times) and Fig 5 (penalties).
func (r Fig45Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4: mean time to reduce %d terms over %d ranks (%d reps)\n", r.N, r.Ranks, r.Reps)
	labels := make([]string, 0, len(sum.PaperAlgorithms))
	times := make([]float64, 0, len(sum.PaperAlgorithms))
	for _, alg := range sum.PaperAlgorithms {
		labels = append(labels, alg.String())
		times = append(times, float64(r.Times[alg].Microseconds()))
	}
	b.WriteString(textplot.BarChart("time (us)", labels, times, 50))
	b.WriteString("\nFig 5: performance penalty vs ST\n")
	var rows [][]string
	for _, alg := range sum.PaperAlgorithms[1:] {
		rows = append(rows, []string{alg.String(), fmt.Sprintf("%.2fx", r.Penalty(alg))})
	}
	b.WriteString(textplot.Table([]string{"alg", "penalty"}, rows))
	return b.String()
}
