// Command calibrate closes the selection loop on the local host: it
// benchmarks the summation engines (accuracy sweep across the
// (n, k, dynamic-range) envelope plus engine cost sweep across
// workers × sizes), fits the results into selection
// surfaces, and writes a versioned calibration artifact the runtime
// loads at startup (repro.LoadCalibrationFile / repro.WithCalibration).
//
//	calibrate -out host.reprocal             # full sweep, minutes
//	calibrate -quick -out host.reprocal      # smoke sweep, seconds
//
// With -check, calibrate instead re-measures a cheap probe subset of an
// existing artifact and exits nonzero when the host has drifted from
// it — accuracy probes must match bitwise (the sweep is deterministic
// given the stored seeds), cost probes within -drift x:
//
//	calibrate -check host.reprocal
//	calibrate -check host.reprocal -probes 5 -drift 4
//
// To diff two artifacts cell by cell, use the shared comparison tool:
// `benchjson -compare -threshold 25 old.reprocal new.reprocal`.
//
// With -mpirt, calibrate refits the collective-topology selection table
// from a recorded BENCH_mpirt.json (the measured analogue of the
// α-β-γ model's table) and prints the refit table:
//
//	calibrate -mpirt BENCH_mpirt.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/mpirt"
	"repro/internal/selector"
)

func main() {
	out := flag.String("out", "calibration.reprocal", "path to write the calibration artifact")
	quick := flag.Bool("quick", false, "small envelope (seconds, for smoke tests) instead of the full sweep")
	check := flag.String("check", "", "re-probe an existing artifact and exit nonzero on drift, instead of calibrating")
	probes := flag.Int("probes", 3, "with -check: probe cells and cost samples to re-measure")
	drift := flag.Float64("drift", 4, "with -check: tolerated cost drift factor in either direction")
	seed := flag.Uint64("seed", 1, "sweep seed (part of the artifact: probes re-derive cell seeds from it)")
	safety := flag.Float64("safety", 4, "safety factor on measured variability at selection time")
	host := flag.String("host", "", "host label stored in the artifact (default os.Hostname)")
	mpirtIn := flag.String("mpirt", "", "refit the collective selection table from a BENCH_mpirt.json and print it, instead of calibrating")
	flag.Parse()

	switch {
	case *check != "":
		if err := runCheck(*check, *probes, *drift); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
	case *mpirtIn != "":
		if err := runMpirtRefit(*mpirtIn); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
	default:
		if err := runCalibrate(*out, *quick, *seed, *safety, *host); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
	}
}

// harness assembles the sweep envelope: the full envelope spans the
// selector's default operating range; -quick shrinks every axis to a
// seconds-scale smoke sweep with the same structure.
func harness(quick bool, seed uint64, safety float64, host string) selector.HarnessConfig {
	if host == "" {
		host, _ = os.Hostname()
	}
	cfg := selector.HarnessConfig{Host: host}
	cfg.Accuracy = selector.CalibrationConfig{Seed: seed, Safety: safety}
	if quick {
		cfg.Accuracy.Ns = []int{256, 4096}
		cfg.Accuracy.Ks = []float64{1, 1e4, 1e8}
		cfg.Accuracy.DRs = []int{0, 16}
		cfg.Accuracy.Trials = 8
		cfg.Cost = selector.CostSweepConfig{
			Ns:      []int{256, 4096},
			MinTime: 200 * time.Microsecond,
			Reps:    1,
		}
	}
	return cfg
}

func runCalibrate(out string, quick bool, seed uint64, safety float64, host string) error {
	cfg := harness(quick, seed, safety, host)
	start := time.Now()
	cal := selector.RunCalibration(cfg)
	sweep := time.Since(start)

	start = time.Now()
	surface := cal.SurfacePolicy()
	fit := time.Since(start)
	if surface.Empty() {
		return fmt.Errorf("calibration produced no usable cells")
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := selector.SaveCalibration(f, cal); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("calibrated %s: %d cells, %d cost samples (sweep %v, fit %v)\n",
		cal.Host, len(cal.Cells), len(cal.Costs), sweep.Round(time.Millisecond), fit.Round(time.Microsecond))
	fmt.Printf("wrote %s; load with repro.LoadCalibrationFile\n", out)
	return nil
}

func runCheck(path string, probes int, drift float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cal, err := selector.LoadCalibration(f)
	f.Close()
	if err != nil {
		return err
	}
	check := selector.CheckCalibration(cal, probes, drift)
	fmt.Printf("%s: %d accuracy probes, %d cost probes\n", path, check.AccuracyProbes, check.CostProbes)
	for _, line := range check.AccuracyDrift {
		fmt.Printf("accuracy drift: %s\n", line)
	}
	for _, line := range check.CostDrift {
		fmt.Printf("cost drift: %s\n", line)
	}
	if check.Drifted() {
		return fmt.Errorf("%s has drifted from this host: recalibrate", path)
	}
	fmt.Println("calibration still valid")
	return nil
}

// benchReport mirrors the benchjson document shape (cmd/benchjson's
// Report) closely enough to pull collective samples out of it.
type benchReport struct {
	Results []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"results"`
}

func runMpirtRefit(path string) error {
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
