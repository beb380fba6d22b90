package selector

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/fpu"
	"repro/internal/grid"
	"repro/internal/sum"
	"repro/internal/tree"
)

// Versioned calibration artifact: everything cmd/calibrate measures on
// a host — the accuracy sweep cells, the engine cost samples, and the
// sweep parameters needed to re-derive any cell deterministically — in
// one canonically encoded file. The artifact is a record of the host,
// not a serving input: no Runtime selects from it, and `calibrate
// -check` (CheckCalibration) re-probes it to tell whether the host
// still agrees with what was measured.
//
// The encoding is line-oriented text with every float64 written as the
// 16-digit lowercase hex of its IEEE-754 bit pattern, so encode →
// decode → re-encode is byte-identical for every value including -0,
// NaN payloads, and infinities (the CSV layer's shortest-decimal
// formatting cannot promise that). Cells keep their sweep order — the
// index is the per-cell seed stream (fpu.MixSeed(seed, index)), which
// is what lets CheckCalibration re-run a probe cell and expect a
// bitwise-identical answer. Algorithms within a cell are written in
// sum.Algorithms order; a file is rejected unless the leading version
// line matches exactly and every declared count is fully present, so a
// truncated or foreign file fails loudly instead of loading partially.

// calibrationVersion is the leading line of every artifact.
const calibrationVersion = "reprocal v2"

// defaultTrialBlock mirrors grid.Config's TrialBlock default; the
// harness pins it explicitly because it is part of the experiment
// definition (block boundaries seed the plan streams).
const defaultTrialBlock = 32

// Calibration is a host calibration artifact: the measured accuracy
// cells and engine costs plus the sweep parameters that reproduce
// them.
type Calibration struct {
	// Host labels the machine the calibration was measured on.
	Host string
	// Safety is the sweep's CalibrationConfig.Safety (default 4). No
	// decision reads it; the reprocal v2 format keeps its line so
	// artifacts stay byte-compatible.
	Safety float64
	// Seed, Trials, Shape, TrialBlock reproduce the accuracy sweep:
	// cell i re-evaluates with fpu.MixSeed(Seed, i). Seed also derives
	// the cost sweep's timing data.
	Seed       uint64
	Trials     int
	Shape      tree.Shape
	TrialBlock int
	// Cells is the accuracy sweep in sweep order.
	Cells []grid.CellResult
	// Costs are the engine cost samples.
	Costs []CostSample
}

// cellAlgs lists the algorithms measured in a cell, in sum.Algorithms
// (cost) order — the canonical iteration for encoding and comparison.
func cellAlgs(c grid.CellResult) []sum.Algorithm {
	var algs []sum.Algorithm
	for _, alg := range sum.Algorithms {
		if _, ok := c.RelStdDev[alg]; ok {
			algs = append(algs, alg)
		}
	}
	return algs
}

// calAlgorithms is the union of algorithms measured across the
// artifact's cells, in sum.Algorithms order — the sweep's algorithm
// list, reconstructed for deterministic re-evaluation.
func (cal *Calibration) calAlgorithms() []sum.Algorithm {
	seen := map[sum.Algorithm]bool{}
	for _, c := range cal.Cells {
		for alg := range c.RelStdDev {
			seen[alg] = true
		}
	}
	var algs []sum.Algorithm
	for _, alg := range sum.Algorithms {
		if seen[alg] {
			algs = append(algs, alg)
		}
	}
	return algs
}

// hexFloat encodes a float64 as the canonical 16-digit lowercase hex of
// its bit pattern — bitwise stable for every value.
func hexFloat(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

func parseHexFloat(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// SaveCalibration writes the canonical encoding of cal. Encoding the
// result of LoadCalibration reproduces the input byte for byte.
func SaveCalibration(w io.Writer, cal *Calibration) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", calibrationVersion)
	fmt.Fprintf(bw, "host %s\n", cal.Host)
	fmt.Fprintf(bw, "safety %s\n", hexFloat(cal.Safety))
	fmt.Fprintf(bw, "sweep seed=%d trials=%d shape=%d trialblock=%d\n",
		cal.Seed, cal.Trials, cal.Shape, cal.TrialBlock)
	fmt.Fprintf(bw, "cells %d\n", len(cal.Cells))
	for _, c := range cal.Cells {
		algs := cellAlgs(c)
		fmt.Fprintf(bw, "cell n=%d cond=%s dr=%d mk=%s mdr=%d algs=%d\n",
			c.Spec.N, hexFloat(c.Spec.Cond), c.Spec.DynRange,
			hexFloat(c.MeasuredK), c.MeasuredDR, len(algs))
		for _, alg := range algs {
			fmt.Fprintf(bw, "alg %s std=%s rel=%s max=%s distinct=%d\n",
				alg, hexFloat(c.StdDev[alg]), hexFloat(c.RelStdDev[alg]),
				hexFloat(c.MaxErr[alg]), c.Distinct[alg])
		}
	}
	fmt.Fprintf(bw, "costs %d\n", len(cal.Costs))
	for _, cs := range cal.Costs {
		fmt.Fprintf(bw, "cost alg=%s n=%d workers=%d ns=%s\n",
			cs.Alg, cs.N, cs.Workers, hexFloat(cs.NsPerOp))
	}
	fmt.Fprint(bw, "end reprocal\n")
	return bw.Flush()
}

// calReader threads line-numbered reads through the decoder so every
// error names the offending line.
type calReader struct {
	sc   *bufio.Scanner
	line int
}

func (cr *calReader) next(what string) (string, error) {
	if !cr.sc.Scan() {
		if err := cr.sc.Err(); err != nil {
			return "", fmt.Errorf("selector: calibration line %d: %w", cr.line+1, err)
		}
		return "", fmt.Errorf("selector: truncated calibration artifact: missing %s after line %d", what, cr.line)
	}
	cr.line++
	return cr.sc.Text(), nil
}

func (cr *calReader) errf(format string, args ...any) error {
	return fmt.Errorf("selector: calibration line %d: %s", cr.line, fmt.Sprintf(format, args...))
}

// LoadCalibration decodes an artifact written by SaveCalibration. A
// file whose version line is unknown is rejected before any content is
// parsed; a file that ends before every declared cell, algorithm row,
// and cost sample is present is rejected as truncated.
func LoadCalibration(r io.Reader) (*Calibration, error) {
	cr := &calReader{sc: bufio.NewScanner(r)}
	cr.sc.Buffer(make([]byte, 0, 1<<16), 1<<20)

	version, err := cr.next("version header")
	if err != nil {
		return nil, err
	}
	if version != calibrationVersion {
		return nil, fmt.Errorf("selector: unsupported calibration artifact %q (want %q)", version, calibrationVersion)
	}
	cal := &Calibration{}

	line, err := cr.next("host line")
	if err != nil {
		return nil, err
	}
	switch {
	case len(line) >= 5 && line[:5] == "host ":
		cal.Host = line[5:] // verbatim, spaces included
	default:
		return nil, cr.errf("malformed host line %q", line)
	}

	line, err = cr.next("safety line")
	if err != nil {
		return nil, err
	}
	var hex string
	if _, err := fmt.Sscanf(line, "safety %s", &hex); err != nil {
		return nil, cr.errf("malformed safety line %q", line)
	}
	if cal.Safety, err = parseHexFloat(hex); err != nil {
		return nil, cr.errf("bad safety value: %v", err)
	}

	line, err = cr.next("sweep line")
	if err != nil {
		return nil, err
	}
	var shape int
	if _, err := fmt.Sscanf(line, "sweep seed=%d trials=%d shape=%d trialblock=%d",
		&cal.Seed, &cal.Trials, &shape, &cal.TrialBlock); err != nil {
		return nil, cr.errf("malformed sweep line %q", line)
	}
	cal.Shape = tree.Shape(shape)

	line, err = cr.next("cells header")
	if err != nil {
		return nil, err
	}
	var nCells int
	if _, err := fmt.Sscanf(line, "cells %d", &nCells); err != nil {
		return nil, cr.errf("malformed cells header %q", line)
	}
	for ci := 0; ci < nCells; ci++ {
		line, err = cr.next(fmt.Sprintf("cell %d of %d", ci+1, nCells))
		if err != nil {
			return nil, err
		}
		var condHex, mkHex string
		var nAlgs int
		c := grid.CellResult{
			StdDev:    map[sum.Algorithm]float64{},
			RelStdDev: map[sum.Algorithm]float64{},
			MaxErr:    map[sum.Algorithm]float64{},
			Distinct:  map[sum.Algorithm]int{},
		}
		if _, err := fmt.Sscanf(line, "cell n=%d cond=%s dr=%d mk=%s mdr=%d algs=%d",
			&c.Spec.N, &condHex, &c.Spec.DynRange, &mkHex, &c.MeasuredDR, &nAlgs); err != nil {
			return nil, cr.errf("malformed cell line %q", line)
		}
		if c.Spec.N < 2 {
			return nil, cr.errf("cell n=%d, want >= 2", c.Spec.N)
		}
		if c.Spec.Cond, err = parseHexFloat(condHex); err != nil {
			return nil, cr.errf("bad cond value: %v", err)
		}
		if c.MeasuredK, err = parseHexFloat(mkHex); err != nil {
			return nil, cr.errf("bad measured-k value: %v", err)
		}
		for ai := 0; ai < nAlgs; ai++ {
			line, err = cr.next(fmt.Sprintf("algorithm %d of %d in cell %d", ai+1, nAlgs, ci+1))
			if err != nil {
				return nil, err
			}
			var name, stdHex, relHex, maxHex string
			var distinct int
			if _, err := fmt.Sscanf(line, "alg %s std=%s rel=%s max=%s distinct=%d",
				&name, &stdHex, &relHex, &maxHex, &distinct); err != nil {
				return nil, cr.errf("malformed alg line %q", line)
			}
			alg, err := sum.ParseAlgorithm(name)
			if err != nil {
				return nil, cr.errf("%v", err)
			}
			if c.StdDev[alg], err = parseHexFloat(stdHex); err != nil {
				return nil, cr.errf("bad std value: %v", err)
			}
			if c.RelStdDev[alg], err = parseHexFloat(relHex); err != nil {
				return nil, cr.errf("bad rel value: %v", err)
			}
			if c.MaxErr[alg], err = parseHexFloat(maxHex); err != nil {
				return nil, cr.errf("bad max value: %v", err)
			}
			c.Distinct[alg] = distinct
		}
		cal.Cells = append(cal.Cells, c)
	}

	line, err = cr.next("costs header")
	if err != nil {
		return nil, err
	}
	var nCosts int
	if _, err := fmt.Sscanf(line, "costs %d", &nCosts); err != nil {
		return nil, cr.errf("malformed costs header %q", line)
	}
	for i := 0; i < nCosts; i++ {
		line, err = cr.next(fmt.Sprintf("cost sample %d of %d", i+1, nCosts))
		if err != nil {
			return nil, err
		}
		var name, nsHex string
		var cs CostSample
		if _, err := fmt.Sscanf(line, "cost alg=%s n=%d workers=%d ns=%s",
			&name, &cs.N, &cs.Workers, &nsHex); err != nil {
			return nil, cr.errf("malformed cost line %q", line)
		}
		if cs.N < 1 {
			return nil, cr.errf("cost sample n=%d, want >= 1", cs.N)
		}
		alg, err := sum.ParseAlgorithm(name)
		if err != nil {
			return nil, cr.errf("%v", err)
		}
		cs.Alg = alg
		if cs.NsPerOp, err = parseHexFloat(nsHex); err != nil {
			return nil, cr.errf("bad ns value: %v", err)
		}
		cal.Costs = append(cal.Costs, cs)
	}

	line, err = cr.next("end marker")
	if err != nil {
		return nil, err
	}
	if line != "end reprocal" {
		return nil, cr.errf("expected end marker, got %q", line)
	}
	return cal, nil
}

// HarnessConfig drives RunCalibration: the accuracy sweep envelope and
// the engine cost sweep, measured together into one artifact.
type HarnessConfig struct {
	Accuracy CalibrationConfig
	Cost     CostSweepConfig
	Host     string
}

// RunCalibration measures the host — the accuracy sweep across the
// configured envelope plus the engine cost sweep — and packages the
// results as a Calibration artifact. The accuracy sweep defaults to the
// full selection ladder (a calibration must know the reproducible rungs
// too); the cost sweep reuses the accuracy seed so CheckCalibration can
// regenerate its timing data.
func RunCalibration(cfg HarnessConfig) *Calibration {
	acc := cfg.Accuracy
	if len(acc.Algorithms) == 0 {
		acc.Algorithms = sum.SelectionLadder
	}
	acc = acc.withDefaults()
	var specs []grid.CellSpec
	for _, n := range acc.Ns {
		specs = append(specs, grid.KDRGrid(n, acc.Ks, acc.DRs)...)
	}
	cells := grid.Sweep(specs, grid.Config{
		Algorithms: acc.Algorithms,
		Trials:     acc.Trials,
		Shape:      acc.Shape,
		Seed:       acc.Seed,
		TrialBlock: defaultTrialBlock,
	})
	cost := cfg.Cost
	cost.Seed = acc.Seed
	if len(cost.Algorithms) == 0 {
		cost.Algorithms = acc.Algorithms
	}
	return &Calibration{
		Host:       cfg.Host,
		Safety:     acc.Safety,
		Seed:       acc.Seed,
		Trials:     acc.Trials,
		Shape:      acc.Shape,
		TrialBlock: defaultTrialBlock,
		Cells:      cells,
		Costs:      CostSweep(cost),
	}
}

// CalCheck is the result of a drift probe: which cells and cost samples
// were re-measured and which of them disagree with the artifact.
type CalCheck struct {
	// AccuracyProbes and CostProbes count the re-measurements taken.
	AccuracyProbes, CostProbes int
	// AccuracyDrift lists probe cells whose re-run no longer matches the
	// stored measurement bitwise (the sweep is deterministic, so any
	// difference means the engine's behavior changed since calibration).
	AccuracyDrift []string
	// CostDrift lists cost samples whose fresh timing is off by more
	// than the configured factor in either direction.
	CostDrift []string
}

// Drifted reports whether any probe flagged the artifact.
func (c CalCheck) Drifted() bool {
	return len(c.AccuracyDrift) > 0 || len(c.CostDrift) > 0
}

// CheckCalibration re-measures a cheap probe subset of the artifact —
// a few accuracy cells re-evaluated with their original seeds, a few
// cost samples re-timed — and reports drift. Accuracy probes expect
// bitwise equality (grid evaluation is deterministic given the seed;
// any mismatch means the engines changed or the artifact was edited);
// cost probes tolerate up to costFactor× in either direction before
// flagging, so scheduler noise does not trigger recalibration. Only
// serial cost samples are probed: a Workers != 0 sample, which an
// artifact from the retired engine sweep may hold, times a route the
// runtime no longer serves. probes <= 0 selects 3 of each; costFactor
// <= 1 selects 4.
func CheckCalibration(cal *Calibration, probes int, costFactor float64) CalCheck {
	if probes <= 0 {
		probes = 3
	}
	if costFactor <= 1 {
		costFactor = 4
	}
	var check CalCheck
	algs := cal.calAlgorithms()
	gcfg := grid.Config{
		Algorithms: algs,
		Trials:     cal.Trials,
		Shape:      cal.Shape,
		TrialBlock: cal.TrialBlock,
	}
	for _, i := range probeIndices(len(cal.Cells), probes) {
		stored := cal.Cells[i]
		fresh := grid.EvalCell(stored.Spec, gcfg, fpu.MixSeed(cal.Seed, uint64(i)))
		check.AccuracyProbes++
		for _, alg := range cellAlgs(stored) {
			sb := math.Float64bits(stored.RelStdDev[alg])
			fb := math.Float64bits(fresh.RelStdDev[alg])
			if sb != fb {
				check.AccuracyDrift = append(check.AccuracyDrift, fmt.Sprintf(
					"cell %d (n=%d k=%.3g dr=%d) %s: stored rel %.6g, fresh %.6g",
					i, stored.Spec.N, stored.Spec.Cond, stored.Spec.DynRange,
					alg, stored.RelStdDev[alg], fresh.RelStdDev[alg]))
			}
		}
	}
	serial := slices.DeleteFunc(slices.Clone(cal.Costs), func(cs CostSample) bool { return cs.Workers != 0 })
	for _, i := range probeIndices(len(serial), probes) {
		cs := serial[i]
		xs := benignData(cs.N, fpu.MixSeed(cal.Seed, uint64(cs.N)))
		fresh, ok := measureCost(cs.Alg, xs, time.Millisecond, 3)
		check.CostProbes++
		if !ok {
			check.CostDrift = append(check.CostDrift, fmt.Sprintf(
				"cost %s n=%d workers=%d: engine no longer measurable",
				cs.Alg, cs.N, cs.Workers))
			continue
		}
		if fresh > cs.NsPerOp*costFactor || cs.NsPerOp > fresh*costFactor {
			check.CostDrift = append(check.CostDrift, fmt.Sprintf(
				"cost %s n=%d workers=%d: stored %.4g ns/op, fresh %.4g ns/op (beyond %gx)",
				cs.Alg, cs.N, cs.Workers, cs.NsPerOp, fresh, costFactor))
		}
	}
	return check
}

// probeIndices spreads count probe indices evenly across n entries
// (first, last, and evenly between), deduplicated in order.
func probeIndices(n, count int) []int {
	if n <= 0 || count <= 0 {
		return nil
	}
	if count > n {
		count = n
	}
	var out []int
	seen := map[int]bool{}
	for j := 0; j < count; j++ {
		i := 0
		if count > 1 {
			i = j * (n - 1) / (count - 1)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
