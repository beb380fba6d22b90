package selector

import (
	"math"
	"time"

	"repro/internal/fpu"
	"repro/internal/sum"
)

// Host cost sweep: measure what each ladder rung actually costs on this
// machine on the serial route Runtime.Sum serves, recorded beside the
// accuracy sweep in the calibration artifact and re-timed by
// CheckCalibration. The sweep is a miniature of the benchmark harness —
// an iteration-scaled timing window per configuration, best-of-reps —
// but runs in-process so cmd/calibrate can fold the samples straight
// into the persisted artifact.

// CostSample is one measured execution cost: the wall-clock ns/op of
// summing an n-element benign slice with one algorithm. CostSweep
// produces them on the local host with the serial alg.Sum, Workers 0.
// Workers > 0 marks a parallel-engine timing from an older artifact: it
// stays in the encoding but the drift check does not read it.
type CostSample struct {
	Alg     sum.Algorithm
	N       int
	Workers int
	NsPerOp float64
}

// CostSweepConfig tunes the host cost sweep.
type CostSweepConfig struct {
	// Algorithms to time (default sum.SelectionLadder).
	Algorithms []sum.Algorithm
	// Ns are the slice sizes to time (default 256, 4Ki, 64Ki, 1Mi).
	Ns []int
	// MinTime is the per-measurement timing window (default 1ms);
	// Reps takes the best of this many windows (default 3).
	MinTime time.Duration
	Reps    int
	// Seed generates the benign timing data.
	Seed uint64
}

func (c CostSweepConfig) withDefaults() CostSweepConfig {
	if len(c.Algorithms) == 0 {
		c.Algorithms = sum.SelectionLadder
	}
	if len(c.Ns) == 0 {
		c.Ns = []int{1 << 8, 1 << 12, 1 << 16, 1 << 20}
	}
	if c.MinTime <= 0 {
		c.MinTime = time.Millisecond
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	return c
}

// CostSweep times every algorithm × size on the local host with the
// serial alg.Sum and returns the usable samples, all with Workers 0. A
// reading that is non-finite or non-positive is dropped rather than
// emitted — degenerate timings shrink the sample set, they never
// corrupt it.
func CostSweep(cfg CostSweepConfig) []CostSample {
	cfg = cfg.withDefaults()
	var out []CostSample
	for _, n := range cfg.Ns {
		if n < 1 {
			continue
		}
		xs := benignData(n, fpu.MixSeed(cfg.Seed, uint64(n)))
		for _, alg := range cfg.Algorithms {
			if ns, ok := measureCost(alg, xs, cfg.MinTime, cfg.Reps); ok {
				out = append(out, CostSample{Alg: alg, N: n, NsPerOp: ns})
			}
		}
	}
	return out
}

// costSink defeats dead-code elimination of the timed folds.
var costSink float64

// measureCost times alg.Sum on xs: best-of-reps over iteration-scaled
// windows of at least minTime. Returns ok=false when the reading is
// unusable.
func measureCost(alg sum.Algorithm, xs []float64, minTime time.Duration, reps int) (ns float64, ok bool) {
	best := math.Inf(1)
	iters := 1
	for r := 0; r < reps; r++ {
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				costSink = alg.Sum(xs)
			}
			elapsed := time.Since(start)
			if elapsed >= minTime {
				if v := float64(elapsed.Nanoseconds()) / float64(iters); v < best {
					best = v
				}
				break
			}
			// Scale the iteration count toward the window, with slack so
			// the next attempt overshoots rather than loops.
			if elapsed <= 0 {
				iters *= 100
			} else {
				iters = int(float64(iters)*float64(minTime)/float64(elapsed)*1.2) + 1
			}
		}
	}
	if math.IsInf(best, 0) || math.IsNaN(best) || best <= 0 {
		return 0, false
	}
	return best, true
}

// benignData generates well-conditioned positive timing data — cost
// measurement wants the common path, not cancellation stress.
func benignData(n int, seed uint64) []float64 {
	rng := fpu.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.5 + rng.Float64()
	}
	return xs
}
