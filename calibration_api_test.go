package repro_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/selector"
	"repro/internal/sum"
)

// TestPublicCalibrationLoop drives the closed loop end to end through
// the public API: calibrate (quick envelope), persist, load, install
// with WithCalibration, and serve — the runtime must still honor the
// tolerance contract (tolerance 0 resolves to a reproducible rung) and
// expose cache statistics from the auto-attached decision cache.
func TestPublicCalibrationLoop(t *testing.T) {
	cal := selector.RunCalibration(selector.HarnessConfig{
		Accuracy: selector.CalibrationConfig{
			Ns:     []int{256, 1024},
			Ks:     []float64{1, 1e4, 1e8},
			DRs:    []int{0, 16},
			Trials: 8,
			Seed:   21,
		},
		Cost: selector.CostSweepConfig{
			Ns:      []int{256},
			Workers: []int{0},
			MinTime: 100 * time.Microsecond,
			Reps:    1,
		},
		Host: "api-test",
	})
	// The quick cost sweep times each rung once for 100µs, which the race
	// detector and a loaded host skew enough to reorder cheap rungs. Pin
	// the samples to CostRank order so the test checks the calibrate →
	// save → load → serve loop, not host timing.
	for i := range cal.Costs {
		cal.Costs[i].NsPerOp = float64(1000 * (1 + cal.Costs[i].Alg.CostRank()))
	}

	path := filepath.Join(t.TempDir(), "host.reprocal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := selector.SaveCalibration(f, cal); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := repro.LoadCalibrationFile(path)
	if err != nil {
		t.Fatalf("LoadCalibrationFile: %v", err)
	}
	if loaded.Host != "api-test" || len(loaded.Cells) != len(cal.Cells) {
		t.Fatalf("loaded artifact host=%q cells=%d, want api-test/%d", loaded.Host, len(loaded.Cells), len(cal.Cells))
	}

	rt := repro.New(0, repro.WithCalibration(loaded))
	xs := []float64{3.5, -3.5, 1.25, 2.75}
	total, rep := rt.Sum(xs)
	if total != 4 {
		t.Errorf("calibrated runtime sum = %g, want 4", total)
	}
	if rep.Algorithm != repro.Binned && rep.Algorithm != repro.Prerounded {
		t.Errorf("tolerance 0 under calibration picked %v, want a reproducible algorithm", rep.Algorithm)
	}
	if _, ok := rt.CacheStats(); !ok {
		t.Error("WithCalibration did not attach a decision cache")
	}

	// A loose tolerance must serve through the surface without escalating
	// to a reproducible rung on benign data.
	loose := repro.New(1e-6, repro.WithCalibration(loaded))
	if _, rep := loose.Sum(xs); rep.Algorithm.CostRank() > sum.BinnedAlg.CostRank() {
		t.Errorf("loose tolerance picked %v, costlier than the reproducible floor", rep.Algorithm)
	}
}

// TestPublicLoadCalibrationRejectsGarbage pins the public loader's
// error path.
func TestPublicLoadCalibrationRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.reprocal")
	if err := os.WriteFile(path, []byte("not a calibration\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.LoadCalibrationFile(path); err == nil {
		t.Error("garbage artifact loaded without error")
	}
	if _, err := repro.LoadCalibrationFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded without error")
	}
}
