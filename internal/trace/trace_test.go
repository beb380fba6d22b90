package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/bigref"
	"repro/internal/fpu"
	"repro/internal/gen"
	"repro/internal/mpirt"
	"repro/internal/sum"
)

func TestRecordAndReplaySerial(t *testing.T) {
	op := sum.StandardAlg.Op()
	rec := NewRecorder(op)
	xs := []float64{1e16, 1, -1e16, 2}
	st := rec.Leaf(xs[0])
	for _, x := range xs[1:] {
		st = rec.Merge(st, rec.Leaf(x))
	}
	live := rec.Finalize(st)
	tr := rec.TraceOf(st)
	if tr.Leaves() != 4 {
		t.Fatalf("leaves = %d", tr.Leaves())
	}
	if tr.Depth() != 3 {
		t.Errorf("serial depth = %d, want 3", tr.Depth())
	}
	// Replaying the same operator reproduces the live result bitwise.
	if got := tr.Replay(op); got != live {
		t.Errorf("replay %g != live %g", got, live)
	}
	// Replaying with CP over the same tree recovers the absorbed bits.
	if got := tr.Replay(sum.CompositeAlg.Op()); got != 3 {
		t.Errorf("CP replay = %g, want 3", got)
	}
	// Operands round-trip.
	ops := tr.Operands()
	if len(ops) != 4 {
		t.Fatalf("operands %v", ops)
	}
}

func TestRecorderUnderNondeterministicCollective(t *testing.T) {
	// Record an arrival-order mpirt reduction, then verify the replay
	// of the recorded tree reproduces the live root value bitwise —
	// even though the tree itself differs run to run.
	xs := gen.SumZeroSeries(2048, 24, 5)
	const ranks = 8
	per := len(xs) / ranks
	for trial := 0; trial < 3; trial++ {
		rec := NewRecorder(sum.StandardAlg.Op())
		w := mpirt.NewWorld(ranks, mpirt.Config{Jitter: 100 * time.Microsecond, Seed: uint64(trial)})
		var live float64
		var tr Trace
		err := w.Run(func(r *mpirt.Rank) {
			local := mpirt.LocalState(rec, xs[r.ID*per:(r.ID+1)*per])
			if st := r.Reduce(0, local, rec, mpirt.Binomial, mpirt.ArrivalOrder); st != nil {
				live = rec.Finalize(st)
				tr = rec.TraceOf(st)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Leaves() != len(xs) {
			t.Fatalf("trace covers %d leaves, want %d", tr.Leaves(), len(xs))
		}
		if got := tr.Replay(sum.StandardAlg.Op()); got != live {
			t.Errorf("trial %d: replay %g != live %g", trial, got, live)
		}
		// The exact oracle over the same operands shows the tree's error.
		exact := bigref.SumFloat64(tr.Operands())
		if exact != 0 {
			t.Errorf("trial %d: trace lost operands: exact %g", trial, exact)
		}
	}
}

// TestLocalStateRecordsEveryElement pins that the collective local
// phase stays observable now that ranks fold through Op.FoldSlice: a
// Recorder's FoldSlice is the per-element reference fold, so each
// rank's mpirt.LocalState records n leaves and n-1 merges (a left
// chain of depth n-1 over the rank's operands in order), and the root
// trace of the collective covers every operand.
func TestLocalStateRecordsEveryElement(t *testing.T) {
	xs := gen.SumZeroSeries(1024, 24, 9)
	const ranks = 8
	per := len(xs) / ranks
	for _, alg := range []sum.Algorithm{sum.StandardAlg, sum.BinnedAlg} {
		rec := NewRecorder(alg.Op())
		locals := make([]Trace, ranks)
		var root Trace
		w := mpirt.NewWorld(ranks, mpirt.Config{})
		err := w.Run(func(r *mpirt.Rank) {
			local := mpirt.LocalState(rec, xs[r.ID*per:(r.ID+1)*per])
			locals[r.ID] = rec.TraceOf(local)
			if st := r.Reduce(0, local, rec, mpirt.Binomial, mpirt.FixedOrder); st != nil {
				root = rec.TraceOf(st)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, tr := range locals {
			if got := tr.Leaves(); got != per {
				t.Errorf("%v rank %d: %d leaves, want %d", alg, id, got, per)
			}
			if got := tr.Depth(); got != per-1 {
				t.Errorf("%v rank %d: depth %d, want a left chain of %d merges", alg, id, got, per-1)
			}
			ops := tr.Operands()
			for i, x := range xs[id*per : (id+1)*per] {
				if i >= len(ops) || math.Float64bits(ops[i]) != math.Float64bits(x) {
					t.Fatalf("%v rank %d: operand %d not recorded in order", alg, id, i)
				}
			}
		}
		// ranks*(per leaves + per-1 local merges) + ranks-1 global merges.
		if got, want := len(root.nodes), ranks*(2*per-1)+ranks-1; got != want {
			t.Errorf("%v: recorder holds %d nodes, want %d", alg, got, want)
		}
		if got := root.Leaves(); got != len(xs) {
			t.Errorf("%v: root trace covers %d leaves, want %d", alg, got, len(xs))
		}
	}
}

func TestReplayDifferentAlgorithmsDiffer(t *testing.T) {
	// On a hard set, ST replay and CP replay of the same tree disagree;
	// CP is closer to exact.
	r := fpu.NewRNG(9)
	rec := NewRecorder(sum.StandardAlg.Op())
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Ldexp(r.Float64()*2-1, r.Intn(40)-20)
	}
	st := rec.Leaf(xs[0])
	for _, x := range xs[1:] {
		st = rec.Merge(st, rec.Leaf(x))
	}
	tr := rec.TraceOf(st)
	exact := bigref.SumFloat64(xs)
	eST := math.Abs(tr.Replay(sum.StandardAlg.Op()) - exact)
	eCP := math.Abs(tr.Replay(sum.CompositeAlg.Op()) - exact)
	if eCP > eST {
		t.Errorf("CP replay error %g worse than ST %g", eCP, eST)
	}
}

func TestBalancedTraceDepth(t *testing.T) {
	rec := NewRecorder(sum.StandardAlg.Op())
	// Build a balanced 8-leaf reduction by hand.
	states := make([]any, 8)
	for i := range states {
		states[i] = rec.Leaf(float64(i))
	}
	for n := 8; n > 1; n /= 2 {
		for i := 0; i < n/2; i++ {
			states[i] = rec.Merge(states[2*i], states[2*i+1])
		}
	}
	tr := rec.TraceOf(states[0])
	if tr.Depth() != 3 {
		t.Errorf("balanced depth = %d, want 3", tr.Depth())
	}
	if got := tr.Replay(sum.StandardAlg.Op()); got != 28 {
		t.Errorf("replay = %g", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	var tr Trace
	if tr.Leaves() != 0 || tr.Depth() != 0 {
		t.Error("empty trace stats")
	}
	if got := tr.Replay(sum.StandardAlg.Op()); got != 0 {
		t.Errorf("empty replay = %g", got)
	}
	if ops := tr.Operands(); len(ops) != 0 {
		t.Errorf("empty operands %v", ops)
	}
}

func TestTraceOfSubtree(t *testing.T) {
	// A trace rooted at a partial state only covers that subtree.
	rec := NewRecorder(sum.StandardAlg.Op())
	a := rec.Merge(rec.Leaf(1), rec.Leaf(2))
	b := rec.Merge(rec.Leaf(3), rec.Leaf(4))
	sub := rec.TraceOf(a)
	if sub.Leaves() != 2 {
		t.Errorf("subtree leaves = %d", sub.Leaves())
	}
	if got := sub.Replay(sum.StandardAlg.Op()); got != 3 {
		t.Errorf("subtree replay = %g", got)
	}
	whole := rec.TraceOf(rec.Merge(a, b))
	if whole.Leaves() != 4 {
		t.Errorf("whole leaves = %d", whole.Leaves())
	}
}
