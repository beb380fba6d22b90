package grid

import (
	"math"
	"testing"

	"repro/internal/tree"
)

// benchCells is a representative Fig 9-style grid: one n, a spread of
// condition numbers and dynamic ranges.
func benchCells() []CellSpec {
	return KDRGrid(2048, []float64{1, 1e4, 1e8}, []int{0, 16, 32})
}

func benchSweep(b *testing.B, shape tree.Shape) {
	cells := benchCells()
	cfg := Config{
		Trials:  64,
		Shape:   shape,
		Seed:    42,
		Workers: 4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Sweep(cells, cfg)
		if len(res) != len(cells) {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkSweepFusedBalanced(b *testing.B) { benchSweep(b, tree.Balanced) }
func BenchmarkSweepFusedRandom(b *testing.B)   { benchSweep(b, tree.Random) }

// BenchmarkSweepFusedEvalCell isolates per-trial evaluation cost from
// scheduling: one operand set, a fixed trial count, no worker pool.
func BenchmarkSweepFusedEvalCell(b *testing.B) {
	cell := CellSpec{N: 4096, Cond: math.Inf(1), DynRange: 24}
	cfg := Config{Trials: 128, Shape: tree.Balanced, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalCell(cell, cfg, 7)
	}
}
