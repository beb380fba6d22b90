package reduce_test

import (
	"testing"

	"repro/internal/reduce"
)

// addMonoid is a trivial exact monoid over small integers (stored as
// float64), so fold/pairwise equivalences are exact.
type addMonoid struct{}

func (addMonoid) Leaf(x float64) float64     { return x }
func (addMonoid) Merge(a, b float64) float64 { return a + b }
func (addMonoid) Finalize(s float64) float64 { return s }

// trackMonoid records the parenthesization it performed, to verify the
// tree structures Fold and Pairwise build.
type trackMonoid struct{}

func (trackMonoid) Leaf(x float64) string { return itoa(int(x)) }
func (trackMonoid) Merge(a, b string) string {
	return "(" + a + "+" + b + ")"
}
func (trackMonoid) Finalize(s string) float64 { return float64(len(s)) }

func itoa(v int) string {
	if v < 0 || v > 9 {
		return "?"
	}
	return string(rune('0' + v))
}

// shape extracts the parenthesization a monoid run produced.
func shape(xs []float64, pairwise bool) string {
	m := trackMonoid{}
	var st string
	if pairwise {
		n := len(xs)
		level := make([]string, n)
		for i, x := range xs {
			level[i] = m.Leaf(x)
		}
		for n > 1 {
			half := n / 2
			for i := 0; i < half; i++ {
				level[i] = m.Merge(level[2*i], level[2*i+1])
			}
			if n%2 == 1 {
				level[half] = level[n-1]
				n = half + 1
			} else {
				n = half
			}
		}
		st = level[0]
	} else {
		st = m.Leaf(xs[0])
		for _, x := range xs[1:] {
			st = m.Merge(st, m.Leaf(x))
		}
	}
	return st
}

func TestFoldIsLeftAssociated(t *testing.T) {
	want := "(((1+2)+3)+4)"
	if got := shape([]float64{1, 2, 3, 4}, false); got != want {
		t.Errorf("fold shape %q, want %q", got, want)
	}
}

func TestPairwiseIsBalanced(t *testing.T) {
	want := "((1+2)+(3+4))"
	if got := shape([]float64{1, 2, 3, 4}, true); got != want {
		t.Errorf("pairwise shape %q, want %q", got, want)
	}
	// Odd count: the straggler joins the next level.
	want5 := "(((1+2)+(3+4))+5)"
	if got := shape([]float64{1, 2, 3, 4, 5}, true); got != want5 {
		t.Errorf("pairwise-5 shape %q, want %q", got, want5)
	}
}

func TestFoldAndPairwiseAgreeOnExactData(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	f := reduce.Fold[float64](addMonoid{}, xs)
	p := reduce.Pairwise[float64](addMonoid{}, xs, nil)
	if f != 28 || p != 28 {
		t.Errorf("fold=%g pairwise=%g, want 28", f, p)
	}
}

func TestBoxedRoundTrip(t *testing.T) {
	op := reduce.Boxed[float64]("add", addMonoid{})
	if op.Name() != "add" {
		t.Errorf("name %q", op.Name())
	}
	st := op.Leaf(1)
	st = op.Merge(st, op.Leaf(2))
	st = op.Merge(st, op.Leaf(3))
	if got := op.Finalize(st); got != 6 {
		t.Errorf("boxed fold = %g", got)
	}
}

func TestPairwiseScratchTooSmallFallsBack(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	small := make([]float64, 2)
	if got := reduce.Pairwise[float64](addMonoid{}, xs, small); got != 15 {
		t.Errorf("pairwise with small scratch = %g", got)
	}
}

// resetState counts the Reset calls that reached it; Reset leaves
// kept alone, as a state that clears only its live words would.
type resetState struct {
	n, resets int
	kept      int
}

func (s *resetState) Reset() { s.n, s.resets = 0, s.resets+1 }

// TestReuseStatesCallsReset pins that ReuseStates resets a reused *S
// through its Reset method, once, instead of zeroing the whole value,
// and hands out fresh zero states for the rest.
func TestReuseStatesCallsReset(t *testing.T) {
	old := &resetState{n: 5, kept: 7}
	dst := reduce.ReuseStates[resetState]([]reduce.State{old, 3}, 3)
	if dst[0] != reduce.State(old) {
		t.Fatalf("reused element replaced")
	}
	if *old != (resetState{resets: 1, kept: 7}) {
		t.Fatalf("reused element %+v, want one Reset call", *old)
	}
	for i, s := range dst[1:] {
		if p, ok := s.(*resetState); !ok || *p != (resetState{}) {
			t.Fatalf("element %d: %#v, want a fresh zero state", i+1, s)
		}
	}
}
