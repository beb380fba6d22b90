package binned

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/superacc"
)

// checkWindow fails unless every slot outside st's live window
// [lo, top) is zero and an empty window is the zero one.
func checkWindow(t *testing.T, label string, st *State) {
	t.Helper()
	if st.lo > st.top || st.top > numSlots || (st.top == 0 && st.lo != 0) {
		t.Fatalf("%s: window [%d, %d) malformed", label, st.lo, st.top)
	}
	for s, v := range st.bins {
		if (s < int(st.lo) || s >= int(st.top)) && v != 0 {
			t.Fatalf("%s: slot %d holds %v outside the window [%d, %d)", label, s, v, st.lo, st.top)
		}
	}
}

// windowModel is the multiset a state under test has absorbed: its
// finite operands and its non-finite tallies.
type windowModel struct {
	finite        []float64
	nan, pos, neg bool
}

func (m *windowModel) add(xs ...float64) {
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			m.nan = true
		case math.IsInf(x, 1):
			m.pos = true
		case math.IsInf(x, -1):
			m.neg = true
		default:
			m.finite = append(m.finite, x)
		}
	}
}

func (m *windowModel) merge(o *windowModel) {
	m.finite = append(m.finite, o.finite...)
	m.nan, m.pos, m.neg = m.nan || o.nan, m.pos || o.pos, m.neg || o.neg
}

// want is the IEEE result of summing the multiset exactly.
func (m *windowModel) want() float64 {
	switch {
	case m.nan || (m.pos && m.neg):
		return math.NaN()
	case m.pos:
		return math.Inf(1)
	case m.neg:
		return math.Inf(-1)
	}
	return superacc.Sum(m.finite)
}

// windowOperands draws n operands: mostly normals over a few bins,
// with subnormals, values >= 2^974, signed zeros and rare ±Inf/NaN.
func windowOperands(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		m := 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			m = -m
		}
		switch r := rng.Intn(1000); {
		case r < 700:
			xs[i] = math.Ldexp(m, rng.Intn(80)-40)
		case r < 800:
			xs[i] = math.Ldexp(m, -1074+rng.Intn(60)) // subnormal and just above
		case r < 880:
			xs[i] = math.Ldexp(m, 974+rng.Intn(49)) // the scaled bins
		case r < 940:
			xs[i] = math.Ldexp(m, rng.Intn(2000)-1000)
		case r < 996:
			xs[i] = math.Copysign(0, m)
		case r < 998:
			xs[i] = math.Inf(int(math.Copysign(1, m)))
		default:
			xs[i] = math.NaN()
		}
	}
	return xs
}

// TestBinnedWindowInvariant drives random sequences of Add, AddSlice,
// AddSliceRef, Merge (self-merge included), Reset and Restore over a
// few states, restoring some at Pend = MaxPend-1 so that the next
// deposit or merge runs a carry pass. After every step each slot
// outside a state's live window must be zero, and Finalize must equal
// the exact sum of what the state absorbed.
func TestBinnedWindowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const nStates = 4
	var sts [nStates]State
	var models [nStates]windowModel
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for step := 0; step < steps; step++ {
		i := rng.Intn(nStates)
		st, m := &sts[i], &models[i]
		var op string
		switch rng.Intn(8) {
		case 0:
			op = "Add"
			x := windowOperands(rng, 1)[0]
			st.Add(x)
			m.add(x)
		case 1, 2:
			op = "AddSlice"
			xs := windowOperands(rng, rng.Intn(40))
			st.AddSlice(xs)
			m.add(xs...)
		case 3:
			op = "AddSliceRef"
			xs := windowOperands(rng, rng.Intn(40))
			st.AddSliceRef(xs)
			m.add(xs...)
		case 4:
			op = "Merge"
			j := rng.Intn(nStates)
			if j == i {
				op = "self-Merge"
				if len(m.finite) > 1000 {
					continue
				}
				cp := *m
				cp.finite = append([]float64(nil), m.finite...)
				m.merge(&cp)
			} else {
				m.merge(&models[j])
			}
			st.Merge(&sts[j])
		case 5:
			op = "Reset"
			st.Reset()
			*m = windowModel{}
		case 6, 7:
			op = "Restore"
			snap := st.Snapshot()
			if rng.Intn(2) == 0 {
				op = "Restore at MaxPend-1"
				snap.Pend = MaxPend - 1
			}
			r, err := Restore(snap)
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, op, err)
			}
			*st = r
		}
		// A state that grew large starts over, so the exact sums stay
		// cheap.
		if len(m.finite) > 4000 {
			st.Reset()
			*m = windowModel{}
		}
		for k := range sts {
			checkWindow(t, op, &sts[k])
		}
		got, want := st.Finalize(), m.want()
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("step %d (%s on state %d): Finalize %x (%v), exact %x (%v)",
				step, op, i, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}

// TestBinnedWindowRenormCrossing pins the carry pass's window growth: a
// state whose bins are full to the headroom bound, restored one deposit
// before the carry schedule, carries out of its top slot on the next
// deposit, and the window must take the carried slot.
func TestBinnedWindowRenormCrossing(t *testing.T) {
	for _, j := range []int{3, 30, hiBin - 2, hiBin - 1, hiBin} {
		var snap Snapshot
		snap.Pend = MaxPend - 1
		q := j*BinWidth - 1074
		if j >= hiBin {
			q -= scaleSH
		}
		// Enough quanta that the carry pass moves some into bin j+1.
		snap.Bins[j+pad] = math.Ldexp(1<<51, q)
		st, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		want := st.Finalize()
		st.Add(0)
		checkWindow(t, "carry", &st)
		if st.bins[j+pad+1] == 0 {
			t.Fatalf("bin %d: no carry into bin %d", j, j+1)
		}
		if got := st.Finalize(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("bin %d: Finalize %v after the carry pass, want %v", j, got, want)
		}
	}
}

// TestBinnedStateSize pins the State layout: the live window's two
// bytes sit in the padding after nan, so a state stays 584 bytes.
func TestBinnedStateSize(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got != 584 {
		t.Fatalf("State is %d bytes, want 584", got)
	}
}
