package selector

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/sum"
)

// quickHarness is a seconds-scale calibration for tests (and the model
// for cmd/calibrate -quick).
func quickHarness() HarnessConfig {
	return HarnessConfig{
		Accuracy: CalibrationConfig{
			Ns:     []int{256, 1024},
			Ks:     []float64{1, 1e4, 1e8},
			DRs:    []int{0, 16},
			Trials: 8,
			Seed:   11,
		},
		Cost: CostSweepConfig{
			Algorithms: []sum.Algorithm{sum.StandardAlg, sum.BinnedAlg},
			Ns:         []int{256},
			MinTime:    100 * time.Microsecond,
			Reps:       1,
		},
		Host: "test-host",
	}
}

// awkwardCalibration hand-builds an artifact whose floats exercise every
// encoding edge: NaN, both infinities, negative zero, and subnormals.
func awkwardCalibration() *Calibration {
	return &Calibration{
		Host:       "host with spaces and trailing  ",
		Safety:     4,
		Seed:       123456789,
		Trials:     50,
		Shape:      2,
		TrialBlock: 32,
		Cells: []grid.CellResult{
			{
				Spec:       grid.CellSpec{N: 1024, Cond: math.Inf(1), DynRange: 16},
				MeasuredK:  math.NaN(),
				MeasuredDR: 12,
				StdDev:     map[sum.Algorithm]float64{sum.StandardAlg: 5e-324, sum.BinnedAlg: math.Copysign(0, -1)},
				RelStdDev:  map[sum.Algorithm]float64{sum.StandardAlg: math.Inf(1), sum.BinnedAlg: 0},
				MaxErr:     map[sum.Algorithm]float64{sum.StandardAlg: math.Inf(-1), sum.BinnedAlg: math.NaN()},
				Distinct:   map[sum.Algorithm]int{sum.StandardAlg: 50, sum.BinnedAlg: 1},
			},
		},
		Costs: []CostSample{
			{Alg: sum.KahanAlg, N: 4096, Workers: 8, NsPerOp: 1234.5678901234},
		},
	}
}

// TestCalibrationRoundTripBytes pins the canonical encoding: encode →
// decode → re-encode must be byte-identical, for a real measured
// artifact and for one built from every awkward float the format must
// carry.
func TestCalibrationRoundTripBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cal  *Calibration
	}{
		{"measured", RunCalibration(quickHarness())},
		{"awkward floats", awkwardCalibration()},
		{"empty", &Calibration{Host: "", Safety: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first bytes.Buffer
			if err := SaveCalibration(&first, tc.cal); err != nil {
				t.Fatalf("save: %v", err)
			}
			loaded, err := LoadCalibration(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			var second bytes.Buffer
			if err := SaveCalibration(&second, loaded); err != nil {
				t.Fatalf("re-save: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("re-encode differs from original encode:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
			}
		})
	}
}

// TestCalibrationRejectsBadArtifacts pins the failure modes: an unknown
// version line (the superseded v1 format included) fails before any
// content parse, a truncation at any line boundary is detected (every
// declared count must be present, down to the end marker), and a size
// the sweeps cannot run is refused at load with its line number.
func TestCalibrationRejectsBadArtifacts(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCalibration(&buf, awkwardCalibration()); err != nil {
		t.Fatalf("save: %v", err)
	}
	full := buf.String()

	t.Run("unknown version", func(t *testing.T) {
		doctored := strings.Replace(full, "reprocal v2", "reprocal v99", 1)
		if _, err := LoadCalibration(strings.NewReader(doctored)); err == nil {
			t.Error("v99 artifact loaded, want version rejection")
		} else if !strings.Contains(err.Error(), "unsupported") {
			t.Errorf("v99 artifact error %q does not name the version problem", err)
		}
	})

	t.Run("v1 artifact", func(t *testing.T) {
		// v1 cost lines carried a lane width the engine no longer has.
		v1 := strings.Replace(full, "reprocal v2", "reprocal v1", 1)
		v1 = strings.Replace(v1, "workers=8 ns=", "workers=8 lanes=4 ns=", 1)
		if _, err := LoadCalibration(strings.NewReader(v1)); err == nil {
			t.Error("v1 artifact loaded, want version rejection")
		} else if !strings.Contains(err.Error(), `unsupported calibration artifact "reprocal v1"`) {
			t.Errorf("v1 artifact error %q does not name the version problem", err)
		}
	})

	for _, tc := range []struct{ name, old, new, line string }{
		{"cell n below 2", "cell n=1024 ", "cell n=-4 ", "line 6"},
		{"cell n of 1", "cell n=1024 ", "cell n=1 ", "line 6"},
		{"cost n below 1", "cost alg=K n=4096 ", "cost alg=K n=-1 ", "line 10"},
		{"cost n of 0", "cost alg=K n=4096 ", "cost alg=K n=0 ", "line 10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doctored := strings.Replace(full, tc.old, tc.new, 1)
			if doctored == full {
				t.Fatalf("fixture has no %q", tc.old)
			}
			if _, err := LoadCalibration(strings.NewReader(doctored)); err == nil {
				t.Error("artifact loaded, want a size rejection")
			} else if !strings.Contains(err.Error(), tc.line) {
				t.Errorf("error %q does not name %s", err, tc.line)
			}
		})
	}

	t.Run("foreign file", func(t *testing.T) {
		if _, err := LoadCalibration(strings.NewReader("n,cond,dr\n1024,1,0\n")); err == nil {
			t.Error("CSV table loaded as a calibration artifact, want rejection")
		}
	})

	t.Run("empty file", func(t *testing.T) {
		if _, err := LoadCalibration(strings.NewReader("")); err == nil {
			t.Error("empty file loaded, want truncation error")
		}
	})

	t.Run("truncated at every line", func(t *testing.T) {
		lines := strings.SplitAfter(full, "\n")
		for cut := 1; cut < len(lines); cut++ {
			prefix := strings.Join(lines[:cut], "")
			if strings.HasSuffix(prefix, "end reprocal\n") {
				continue
			}
			if _, err := LoadCalibration(strings.NewReader(prefix)); err == nil {
				t.Errorf("artifact truncated after %d lines loaded without error", cut)
			}
		}
	})

	t.Run("corrupt count", func(t *testing.T) {
		doctored := strings.Replace(full, "cells 1", "cells 7", 1)
		if _, err := LoadCalibration(strings.NewReader(doctored)); err == nil {
			t.Error("artifact claiming more cells than present loaded, want truncation error")
		}
	})
}

// TestCheckCalibration verifies the drift probe in both directions: a
// fresh artifact re-probes clean (the sweep is deterministic given the
// stored seeds), and an artificially perturbed accuracy cell is
// flagged. Cost probes use a huge factor so scheduler noise cannot make
// the fresh-pass half flaky.
func TestCheckCalibration(t *testing.T) {
	cal := RunCalibration(quickHarness())

	check := CheckCalibration(cal, 3, 1e9)
	if len(check.AccuracyDrift) > 0 {
		t.Errorf("fresh artifact flagged accuracy drift: %v", check.AccuracyDrift)
	}
	if check.AccuracyProbes == 0 || check.CostProbes == 0 {
		t.Errorf("probe counts %d/%d, want both nonzero", check.AccuracyProbes, check.CostProbes)
	}
	if check.Drifted() && len(check.CostDrift) == 0 {
		t.Error("Drifted() true without any drift lines")
	}

	// Perturb the first probed cell's ST measurement: the re-run must
	// disagree bitwise and flag it.
	perturbed := *cal
	perturbed.Cells = append([]grid.CellResult(nil), cal.Cells...)
	target := perturbed.Cells[0]
	rel := map[sum.Algorithm]float64{}
	for alg, v := range target.RelStdDev {
		rel[alg] = v
	}
	rel[sum.StandardAlg] = rel[sum.StandardAlg]*2 + 1e-30
	target.RelStdDev = rel
	perturbed.Cells[0] = target
	check = CheckCalibration(&perturbed, 3, 1e9)
	if len(check.AccuracyDrift) == 0 {
		t.Error("perturbed artifact not flagged by accuracy probes")
	}
	if !check.Drifted() {
		t.Error("Drifted() false on perturbed artifact")
	}
}

// TestCheckCalibrationIgnoresEngineSamples: a parallel-engine cost
// sample (Workers != 0) from an older artifact times a route
// Runtime.Sum never runs, so the drift check must not probe it.
func TestCheckCalibrationIgnoresEngineSamples(t *testing.T) {
	engine := CostSample{Alg: sum.StandardAlg, N: 1 << 10, Workers: 2, NsPerOp: 10}
	check := CheckCalibration(&Calibration{Seed: 5, Costs: []CostSample{engine}}, 3, 1e9)
	if check.CostProbes != 0 || check.Drifted() {
		t.Errorf("drift check probed an engine sample: %+v", check)
	}
}

// TestCostSweep pins the sweep's output contract: every emitted sample
// is finite and positive, and every algorithm gets one serial row
// (Workers 0) per size.
func TestCostSweep(t *testing.T) {
	algs := []sum.Algorithm{sum.StandardAlg, sum.BinnedAlg}
	samples := CostSweep(CostSweepConfig{
		Algorithms: algs,
		Ns:         []int{128, 0}, // n < 1 has nothing to time: skipped
		MinTime:    50 * time.Microsecond,
		Reps:       1,
	})
	seen := map[sum.Algorithm]int{}
	for _, s := range samples {
		if !(s.NsPerOp > 0) || math.IsInf(s.NsPerOp, 0) {
			t.Errorf("unusable sample emitted: %+v", s)
		}
		if s.N != 128 || s.Workers != 0 {
			t.Errorf("sample for n=%d workers=%d, want only serial n=128: %+v", s.N, s.Workers, s)
		}
		seen[s.Alg]++
	}
	for _, alg := range algs {
		if seen[alg] != 1 {
			t.Errorf("%v: %d samples, want 1", alg, seen[alg])
		}
	}
}
