package mpirt

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/sum"
)

// vecData builds per-rank vectors whose elementwise exact sums are
// computable.
func vecData(ranks, n int, seed uint64) [][]float64 {
	r := fpu.NewRNG(seed)
	out := make([][]float64, ranks)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = math.Ldexp(r.Float64()*2-1, r.Intn(40)-20)
		}
	}
	return out
}

// exactElementwise returns the exact per-element sums.
func exactElementwise(vecs [][]float64) []float64 {
	n := len(vecs[0])
	out := make([]float64, n)
	col := make([]float64, len(vecs))
	for j := 0; j < n; j++ {
		for i := range vecs {
			col[i] = vecs[i][j]
		}
		out[j] = bigref.SumFloat64(col)
	}
	return out
}

func TestVectorReduceCorrectAllSegSizes(t *testing.T) {
	const ranks, n = 8, 100
	vecs := vecData(ranks, n, 1)
	want := exactElementwise(vecs)
	for _, segSize := range []int{0, 1, 7, 33, 100, 1000} {
		for _, topo := range []Topology{Binomial, Chain} {
			w := NewWorld(ranks, Config{})
			var got []float64
			err := w.Run(func(r *Rank) {
				if v, ok := r.VectorReduce(0, vecs[r.ID], sum.CompositeAlg.Op(), topo, FixedOrder, segSize); ok {
					got = v
				}
			})
			if err != nil {
				t.Fatalf("seg=%d %v: %v", segSize, topo, err)
			}
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9*math.Abs(want[j])+1e-15 {
					t.Fatalf("seg=%d %v: element %d: %g vs %g", segSize, topo, j, got[j], want[j])
				}
			}
		}
	}
}

func TestVectorReducePRBitwiseUnderArrival(t *testing.T) {
	const ranks, n = 16, 64
	vecs := vecData(ranks, n, 2)
	op := sum.PreroundedAlg.Op()
	var first []float64
	for trial := 0; trial < 5; trial++ {
		w := NewWorld(ranks, Config{Jitter: 150 * time.Microsecond, Seed: uint64(trial)})
		var got []float64
		err := w.Run(func(r *Rank) {
			if v, ok := r.VectorReduce(0, vecs[r.ID], op, Binomial, ArrivalOrder, 13); ok {
				got = v
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("trial %d element %d: %g != %g", trial, j, got[j], first[j])
			}
		}
	}
}

func TestVectorAllReduce(t *testing.T) {
	const ranks, n = 6, 17
	vecs := vecData(ranks, n, 3)
	want := exactElementwise(vecs)
	w := NewWorld(ranks, Config{})
	results := make([][]float64, ranks)
	err := w.Run(func(r *Rank) {
		results[r.ID] = r.VectorAllReduce(vecs[r.ID], sum.CompositeAlg.Op(), Binomial, FixedOrder, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, got := range results {
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9*math.Abs(want[j])+1e-15 {
				t.Fatalf("rank %d element %d wrong", id, j)
			}
		}
	}
}

func TestVectorReduceEmpty(t *testing.T) {
	w := NewWorld(4, Config{})
	err := w.Run(func(r *Rank) {
		v, ok := r.VectorReduce(0, nil, sum.StandardAlg.Op(), Binomial, FixedOrder, 8)
		if r.ID == 0 {
			if !ok || len(v) != 0 {
				panic("root should get an empty vector")
			}
		} else if ok {
			panic("non-root got result")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorReduceSingleRank(t *testing.T) {
	w := NewWorld(1, Config{})
	err := w.Run(func(r *Rank) {
		v, ok := r.VectorReduce(0, []float64{1, 2, 3}, sum.StandardAlg.Op(), Flat, FixedOrder, 2)
		if !ok || v[0] != 1 || v[1] != 2 || v[2] != 3 {
			panic("single-rank vector reduce wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVectorAllReduceOwnResult is the regression test for a shared
// result: every rank writes its own result vector, and no rank may see
// another rank's write (a shared broadcast slice also races under
// -race).
func TestVectorAllReduceOwnResult(t *testing.T) {
	const ranks, n = 4, 6
	vecs := vecData(ranks, n, 5)
	for _, topo := range Topologies {
		w := NewWorld(ranks, Config{})
		err := w.Run(func(r *Rank) {
			v := r.VectorAllReduce(vecs[r.ID], sum.BinnedAlg.Op(), topo, FixedOrder, 0)
			v[0] = float64(r.ID)
			r.Barrier()
			if v[0] != float64(r.ID) {
				panic(fmt.Sprintf("rank %d's result was overwritten with %g", r.ID, v[0]))
			}
		})
		if err != nil {
			t.Errorf("%v: %v", topo, err)
		}
	}
}
