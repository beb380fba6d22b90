// Command treesim reduces a generated workload over varied reduction
// trees and reports each algorithm's result spread — an interactive
// version of the paper's Figs 6 and 7.
//
// Usage:
//
//	treesim -n 8192 -k inf -dr 32 -shape unbalanced -trees 100
//
// With -collective the workload is instead distributed over an mpirt
// world and reduced with a collective schedule under arrival-order
// merging and jitter, one world per trial:
//
//	treesim -n 8192 -collective rabenseifner -ranks 256
//	treesim -n 8192 -collective auto -ranks 1024   # selection table picks
//
// With -refit, treesim instead refits the collective-topology selection
// table from a recorded BENCH_mpirt.json (the measured analogue of the
// α-β-γ model's table) and prints the refit table:
//
//	treesim -refit BENCH_mpirt.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpirt"
	"repro/internal/sum"
	"repro/internal/textplot"
	"repro/internal/tree"
)

func main() {
	n := flag.Int("n", 8192, "number of summands")
	kStr := flag.String("k", "inf", "target condition number (number or 'inf')")
	dr := flag.Int("dr", 32, "binary dynamic range")
	shapeStr := flag.String("shape", "balanced", "tree shape: balanced, unbalanced, random, blocked, knomial")
	trees := flag.Int("trees", 100, "number of permuted trees (or jittered worlds with -collective)")
	seed := flag.Uint64("seed", 1, "seed")
	collective := flag.String("collective", "",
		"reduce over an mpirt collective instead of permuted trees: binomial, binary, chain, flat, rabenseifner, rsag, dtree, or auto (selection table)")
	ranks := flag.Int("ranks", 64, "mpirt world size for -collective")
	refit := flag.String("refit", "", "refit the collective selection table from a BENCH_mpirt.json and print it, instead of simulating")
	flag.Parse()
	if *refit != "" {
		if err := runRefit(*refit); err != nil {
			fmt.Fprintln(os.Stderr, "treesim:", err)
			os.Exit(1)
		}
		return
	}

	k := math.Inf(1)
	if *kStr != "inf" {
		if _, err := fmt.Sscanf(*kStr, "%g", &k); err != nil {
			fmt.Fprintf(os.Stderr, "treesim: bad -k %q\n", *kStr)
			os.Exit(1)
		}
	}
	spec := gen.Spec{N: *n, Cond: k, DynRange: *dr, Seed: *seed}
	if err := checkFlags(spec, *ranks, *trees); err != nil {
		fmt.Fprintln(os.Stderr, "treesim:", err)
		os.Exit(2)
	}

	var shape tree.Shape
	switch *shapeStr {
	case "balanced":
		shape = tree.Balanced
	case "unbalanced":
		shape = tree.Unbalanced
	case "random":
		shape = tree.Random
	case "blocked":
		shape = tree.Blocked
	case "knomial":
		shape = tree.Knomial
	default:
		fmt.Fprintf(os.Stderr, "treesim: unknown shape %q\n", *shapeStr)
		os.Exit(1)
	}

	xs := spec.Generate()
	ref := bigref.SumFloat64(xs)
	fmt.Printf("workload: n=%d measured k=%.3g dr=%d; exact sum %.17g\n",
		*n, metrics.CondNumber(xs), metrics.DynRange(xs), ref)
	if *collective != "" {
		runCollective(*collective, *ranks, *trees, *seed, xs, ref)
		return
	}
	fmt.Printf("reducing over %d %s trees with permuted leaf assignments\n\n", *trees, shape)

	labels := make([]string, 0, len(sum.PaperAlgorithms))
	stats := make([]metrics.Stats, 0, len(sum.PaperAlgorithms))
	var rows [][]string
	for _, alg := range sum.PaperAlgorithms {
		rng := fpu.NewRNG(*seed ^ uint64(alg)<<13)
		sums := grid.AlgSpread(alg, shape, xs, *trees, rng)
		st := metrics.ErrorStats(sums, ref)
		labels = append(labels, alg.String())
		stats = append(stats, st)
		rows = append(rows, []string{
			alg.String(),
			fmt.Sprintf("%.3g", st.Max),
			fmt.Sprintf("%.3g", st.StdDev),
			fmt.Sprintf("%d", metrics.DistinctValues(sums)),
		})
	}
	fmt.Print(textplot.Boxplot("error magnitude per tree", labels, stats, 60))
	fmt.Println()
	fmt.Print(textplot.Table([]string{"alg", "max err", "stddev", "distinct results"}, rows))
}

// runCollective distributes the workload over an mpirt world and
// reduces it with the chosen collective schedule, one jittered
// arrival-order world per trial, reporting each algorithm's spread the
// same way the tree simulation does.
func runCollective(name string, ranks, trials int, seed uint64, xs []float64, ref float64) {
	var topo mpirt.Topology
	if name == "auto" {
		perRank := (len(xs) + ranks - 1) / ranks
		topo = mpirt.SelectTopology(8*perRank, ranks)
		fmt.Printf("selection table picked %v for %dB/rank over %d ranks\n", topo, 8*perRank, ranks)
	} else {
		t, err := mpirt.ParseTopology(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "treesim:", err)
			os.Exit(1)
		}
		topo = t
	}
	fmt.Printf("reducing over the %v collective: %d ranks, %d arrival-order worlds with jitter\n\n",
		topo, ranks, trials)

	algs := append(append([]sum.Algorithm(nil), sum.PaperAlgorithms...), sum.BinnedAlg)
	per := (len(xs) + ranks - 1) / ranks
	labels := make([]string, 0, len(algs))
	stats := make([]metrics.Stats, 0, len(algs))
	var rows [][]string
	for _, alg := range algs {
		op := alg.Op()
		sums := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			w := mpirt.NewWorld(ranks, mpirt.Config{
				Jitter: 100 * time.Microsecond,
				Seed:   seed ^ uint64(alg)<<13 ^ uint64(trial)<<1,
			})
			var got float64
			err := w.Run(func(r *mpirt.Rank) {
				lo, hi := r.ID*per, (r.ID+1)*per
				if lo > len(xs) {
					lo = len(xs)
				}
				if hi > len(xs) {
					hi = len(xs)
				}
				if v, ok := r.ReduceSum(0, xs[lo:hi], op, topo, mpirt.ArrivalOrder); ok {
					got = v
				}
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "treesim:", err)
				os.Exit(1)
			}
			sums = append(sums, got)
		}
		st := metrics.ErrorStats(sums, ref)
		labels = append(labels, alg.String())
		stats = append(stats, st)
		rows = append(rows, []string{
			alg.String(),
			fmt.Sprintf("%.3g", st.Max),
			fmt.Sprintf("%.3g", st.StdDev),
			fmt.Sprintf("%d", metrics.DistinctValues(sums)),
		})
	}
	fmt.Print(textplot.Boxplot("error magnitude per world", labels, stats, 60))
	fmt.Println()
	fmt.Print(textplot.Table([]string{"alg", "max err", "stddev", "distinct results"}, rows))
}

// checkFlags rejects values no run can use: a workload the generator
// cannot build (-n, -k, -dr), a world without ranks, or a spread
// without trials.
func checkFlags(spec gen.Spec, ranks, trees int) error {
	switch {
	case ranks < 1:
		return fmt.Errorf("-ranks %d: need at least 1 rank", ranks)
	case trees < 1:
		return fmt.Errorf("-trees %d: need at least 1 tree", trees)
	}
	return spec.Validate()
}

// benchReport mirrors the benchjson document shape (cmd/benchjson's
// Report) closely enough to pull collective samples out of it.
type benchReport struct {
	Results []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"results"`
}

// runRefit refits the default machine's selection table from the
// collective samples recorded in a BENCH_mpirt.json and prints it.
func runRefit(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rep benchReport
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	var samples []mpirt.TopoSample
	for _, r := range rep.Results {
		if s, ok := mpirt.ParseBenchSample(r.Name, r.NsPerOp); ok {
			samples = append(samples, s)
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("%s: no collective benchmark samples", path)
	}
	table := mpirt.NewSelectionTable(mpirt.DefaultMachine())
	refit, n := table.Refit(samples)
	fmt.Printf("%d collective samples, %d selection cells refit from measurement\n", len(samples), n)
	fmt.Print(refit.String())
	return nil
}
