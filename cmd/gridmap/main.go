// Command gridmap renders parameter-space variability grids (the
// paper's Figs 9–11) and cheapest-acceptable-algorithm policy maps
// (Fig 12) as ASCII heatmaps, with configurable axes.
//
// Usage:
//
//	gridmap -space kdr -n 4096 -trials 50
//	gridmap -space nk -dr 16
//	gridmap -space kdr -policy -thresholds 5e-13,1e-13,5e-14
//	gridmap -space kdr -shape unbalanced -workers 8
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/sum"
	"repro/internal/textplot"
	"repro/internal/tree"
)

func main() {
	space := flag.String("space", "kdr", "parameter space: kdr, ndr, or nk")
	n := flag.Int("n", 4096, "set size for the kdr space")
	k := flag.Float64("k", 1, "condition number for the ndr space")
	dr := flag.Int("dr", 16, "dynamic range for the nk space")
	trials := flag.Int("trials", 50, "reduction trees per cell")
	seed := flag.Uint64("seed", 1, "seed")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS); never affects results")
	shapeName := flag.String("shape", "balanced", "reduction tree shape: balanced, unbalanced, random, blocked, or knomial")
	policy := flag.Bool("policy", false, "render Fig 12-style cheapest-algorithm maps instead of shading")
	thresholds := flag.String("thresholds", "5e-13,3e-13,2.5e-13,1.5e-13,5e-14",
		"comma-separated variability thresholds for -policy")
	flag.Parse()

	var shape tree.Shape
	if err := shape.UnmarshalText([]byte(*shapeName)); err != nil {
		fmt.Fprintln(os.Stderr, "gridmap:", err)
		os.Exit(1)
	}

	ks := []float64{1, 1e2, 1e4, 1e6, 1e8}
	drs := []int{0, 8, 16, 24, 32}
	ns := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}

	var cells []grid.CellSpec
	var rowLabels, colLabels []string
	var rows, cols int
	switch *space {
	case "kdr":
		cells = grid.KDRGrid(*n, ks, drs)
		rowLabels, colLabels = intLabels(drs), kLabels(ks)
		rows, cols = len(drs), len(ks)
	case "ndr":
		cells = grid.NDRGrid(ns, *k, drs)
		rowLabels, colLabels = intLabels(drs), intLabels(ns)
		rows, cols = len(drs), len(ns)
	case "nk":
		cells = grid.NKGrid(ns, ks, *dr)
		rowLabels, colLabels = kLabels(ks), intLabels(ns)
		rows, cols = len(ks), len(ns)
	default:
		fmt.Fprintf(os.Stderr, "gridmap: unknown space %q\n", *space)
		os.Exit(1)
	}

	results := grid.Sweep(cells, grid.Config{
		Algorithms: sum.PaperAlgorithms,
		Trials:     *trials,
		Shape:      shape,
		Seed:       *seed,
		Workers:    *workers,
	})

	if *policy {
		ths, err := parseThresholds(*thresholds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridmap:", err)
			os.Exit(1)
		}
		classes := grid.Classify(results, ths)
		for ti, th := range ths {
			fmt.Printf("\ncheapest acceptable algorithm, t = %.3g:\n", th)
			var tRows [][]string
			for r := 0; r < rows; r++ {
				line := []string{rowLabels[r]}
				for c := 0; c < cols; c++ {
					cls := classes[ti][r*cols+c]
					if cls < 0 {
						line = append(line, "-")
					} else {
						line = append(line, sum.Algorithm(cls).String())
					}
				}
				tRows = append(tRows, line)
			}
			fmt.Print(textplot.Table(append([]string{""}, colLabels...), tRows))
		}
		return
	}

	for _, alg := range sum.PaperAlgorithms {
		shade := make([][]float64, rows)
		for r := 0; r < rows; r++ {
			shade[r] = make([]float64, cols)
			for c := 0; c < cols; c++ {
				shade[r][c] = results[r*cols+c].RelStdDev[alg]
			}
		}
		fmt.Println()
		fmt.Print(textplot.Heatmap(
			fmt.Sprintf("%s — relative stddev over %d trees", alg.FullName(), *trials),
			rowLabels, colLabels, shade))
	}
}

func parseThresholds(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func intLabels(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

func kLabels(ks []float64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("1e%d", int(math.Round(math.Log10(k))))
	}
	return out
}
