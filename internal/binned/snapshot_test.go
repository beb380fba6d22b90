package binned

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// adversarialOperands is a deposit stream exercising every state
// component: denormals, -0, huge top-window values, sign mixes, and
// enough bulk to cross carry-pass boundaries when repeated.
func adversarialOperands() []float64 {
	return []float64{
		1, -1.5, 0x1p-1074, -0x1p-1050, 0.0, math.Copysign(0, -1),
		0x1.fffffffffffffp1023, -0x1p990, 3.14e-200, -2.71e200,
		0x1p-500, -0x1p-500, 1e16, -1e-16, 0x1.23456789abcdep42,
	}
}

// compareStates asserts two states are field-for-field identical at the
// bit level.
func compareStates(t *testing.T, label string, a, b *State) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := range sa.Bins {
		if math.Float64bits(sa.Bins[i]) != math.Float64bits(sb.Bins[i]) {
			t.Fatalf("%s: bin slot %d differs: %x vs %x",
				label, i, math.Float64bits(sa.Bins[i]), math.Float64bits(sb.Bins[i]))
		}
	}
	if sa.Count != sb.Count || sa.Pend != sb.Pend ||
		sa.PosInf != sb.PosInf || sa.NegInf != sb.NegInf || sa.NaN != sb.NaN {
		t.Fatalf("%s: counters differ: %+v vs %+v", label,
			struct{ C, P, PI, NI int64 }{sa.Count, sa.Pend, sa.PosInf, sa.NegInf},
			struct{ C, P, PI, NI int64 }{sb.Count, sb.Pend, sb.PosInf, sb.NegInf})
	}
	if math.Float64bits(a.Finalize()) != math.Float64bits(b.Finalize()) {
		t.Fatalf("%s: Finalize bits differ: %x vs %x",
			label, math.Float64bits(a.Finalize()), math.Float64bits(b.Finalize()))
	}
}

// TestSnapshotRestoreTwin pins the satellite contract: a state
// round-tripped through Snapshot/Restore continues depositing and
// merging bitwise-identically to the never-serialized twin — including
// across renormalization boundaries, where the Pend counter (not just
// the bins) determines the carry-pass timing.
func TestSnapshotRestoreTwin(t *testing.T) {
	ops := adversarialOperands()
	var twin State
	for i := 0; i < 1000; i++ {
		twin.Add(ops[i%len(ops)])
	}
	// Park the twin 10 deposits below a renorm boundary so the restored
	// copy must reproduce the carry-pass timing exactly.
	fill := make([]float64, MaxPend-int(twin.Snapshot().Pend)-10)
	for i := range fill {
		fill[i] = float64(i%97) * 0x1p-30
	}
	twin.AddSlice(fill)
	if got := twin.Snapshot().Pend; got != MaxPend-10 {
		t.Fatalf("parking failed: pend %d, want %d", got, MaxPend-10)
	}

	restored, err := Restore(twin.Snapshot())
	if err != nil {
		t.Fatalf("Restore rejected a live snapshot: %v", err)
	}
	compareStates(t, "immediately after restore", &twin, &restored)

	// Deposit across the renorm boundary on both, one element at a time.
	for i := 0; i < 25; i++ {
		x := float64(i+1) * 0x1p-20
		twin.Add(x)
		restored.Add(x)
	}
	compareStates(t, "after crossing a renorm boundary", &twin, &restored)
	filler := fill[:1111]

	// Element-wise deposits and specials.
	for _, x := range adversarialOperands() {
		twin.Add(x)
		restored.Add(x)
	}
	compareStates(t, "after special deposits", &twin, &restored)

	// Merge each against a common other state.
	var other State
	other.AddSlice(filler)
	other.Add(math.Inf(1))
	twin.Merge(&other)
	restored.Merge(&other)
	compareStates(t, "after merge", &twin, &restored)

	// NaN poison propagates identically.
	twin.Add(math.NaN())
	restored.Add(math.NaN())
	sa, sb := twin.Snapshot(), restored.Snapshot()
	if !sa.NaN || !sb.NaN {
		t.Fatal("NaN deposit did not poison both twins")
	}
}

// TestRestoreRejectsInvalid pins the validation envelope: counters and
// bins no live state can hold are rejected rather than silently voiding
// the exactness bounds. good holds 1 (bin 33, quantum 2^-18) and
// 0x1p1000 (bins 64 and 65, scaled by 2^-512) with Pend 2.
func TestRestoreRejectsInvalid(t *testing.T) {
	var st State
	st.Add(1)
	st.Add(0x1p1000)
	good := st.Snapshot()
	if _, err := Restore(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"negative count", func(s *Snapshot) { s.Count = -1 }},
		{"negative pend", func(s *Snapshot) { s.Pend = -5 }},
		{"pend at schedule bound", func(s *Snapshot) { s.Pend = MaxPend }},
		{"pend beyond schedule", func(s *Snapshot) { s.Pend = MaxPend + 7 }},
		{"negative posInf", func(s *Snapshot) { s.PosInf = -1 }},
		{"negative negInf", func(s *Snapshot) { s.NegInf = -2 }},
		{"inf tallies exceed count", func(s *Snapshot) { s.PosInf = s.Count + 1 }},
		{"NaN bin", func(s *Snapshot) { s.Bins[33+pad] = math.NaN() }},
		{"Inf bin", func(s *Snapshot) { s.Bins[33+pad] = math.Inf(1) }},
		{"-Inf scaled bin", func(s *Snapshot) { s.Bins[65+pad] = math.Inf(-1) }},
		{"off-grid bin", func(s *Snapshot) { s.Bins[33+pad] = 0.1 }},
		{"off-grid bin 1", func(s *Snapshot) { s.Bins[1+pad] = 0x1p-1074 }},
		{"off-grid scaled bin", func(s *Snapshot) { s.Bins[65+pad] = 0x1.8p494 }},
		{"sub-quantum scaled bin", func(s *Snapshot) { s.Bins[64+pad] = 0x1p-1074 }},
		{"bin over headroom", func(s *Snapshot) { s.Bins[20+pad] = math.Ldexp(1<<31+2<<32+1, 20*BinWidth-1074) }},
		{"bin over headroom, negative", func(s *Snapshot) { s.Bins[40+pad] = math.Ldexp(-(1<<31 + 2<<32 + 1), 40*BinWidth-1074) }},
		{"scaled bin over headroom", func(s *Snapshot) { s.Bins[64+pad] = math.Ldexp(1<<31+2<<32+1, 64*BinWidth-1074-scaleSH) }},
		{"top bin at 2^53", func(s *Snapshot) { s.Bins[65+pad] = math.Ldexp(1<<53, 65*BinWidth-1074-scaleSH) }},
		{"nonzero pad slot", func(s *Snapshot) { s.Bins[0] = 0x1p-1074 }},
		{"nonzero pad slot 1", func(s *Snapshot) { s.Bins[1] = -1 }},
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		if _, err := Restore(s); err == nil {
			t.Errorf("%s: Restore accepted an invalid snapshot", tc.name)
		}
	}
	// The bounds themselves are inclusive for the non-top bins and
	// exclusive for the top bin; -0 is zero everywhere.
	edge := good
	edge.Bins[20+pad] = math.Ldexp(1<<31+2<<32, 20*BinWidth-1074)
	edge.Bins[64+pad] = math.Ldexp(-(1<<31 + 2<<32), 64*BinWidth-1074-scaleSH)
	edge.Bins[65+pad] = math.Ldexp(1<<53-1, 65*BinWidth-1074-scaleSH)
	edge.Bins[0] = math.Copysign(0, -1)
	edge.Bins[0+pad] = -0x1p-1074
	if _, err := Restore(edge); err != nil {
		t.Fatalf("snapshot at the headroom bounds rejected: %v", err)
	}
}

// TestLiveStatesValidate is the property behind Validate's bin checks:
// every state Add, AddSlice, AddSliceRef, Merge and the carry schedule
// produce passes them. The streams push bins toward the headroom bound
// (a full renorm budget of same-sign operands at the top of one bin),
// through the two-level anchor windows and the scaled top bins, and
// the states are checked before and after merges and carry passes.
func TestLiveStatesValidate(t *testing.T) {
	check := func(label string, st *State) {
		t.Helper()
		s := st.Snapshot()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: live state rejected: %v", label, err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	// topOfBin is the largest operand whose top bin is j.
	topOfBin := func(j int) float64 { return math.Ldexp(0x1.fffffffffffffp31, j*BinWidth-1074) }
	full := MaxPend - 1
	streams := map[string][]float64{
		"adversarial": nil,
		"random":      randSlice(rng, 100000, 1e100),
		"tiny":        randSlice(rng, 100000, 1e-300),
		"huge":        randSlice(rng, 100000, 1e290),
	}
	for i := 0; i < 20000; i++ {
		streams["adversarial"] = append(streams["adversarial"], adversarialOperands()...)
	}
	for _, j := range []int{2, 63} {
		xs := make([]float64, full)
		for i := range xs {
			xs[i] = topOfBin(j)
		}
		streams[fmt.Sprintf("top of bin %d", j)] = xs
	}
	// Two adjacent windows: the two-level kernel splits the lower one
	// against the upper one's grids.
	mixed := make([]float64, full)
	for i := range mixed {
		mixed[i] = topOfBin(34 - i%2)
	}
	streams["bins 34 and 33"] = mixed
	maxes := make([]float64, 1<<16)
	for i := range maxes {
		maxes[i] = math.MaxFloat64
		if i%3 == 0 {
			maxes[i] = -0x1.fffffffffffffp1005
		}
	}
	streams["scaled bins"] = maxes

	for name, xs := range streams {
		var fast, ref, elem State
		fast.AddSlice(xs)
		ref.AddSliceRef(xs)
		check(name+" AddSlice", &fast)
		check(name+" AddSliceRef", &ref)
		if len(xs) <= 1<<17 {
			for _, x := range xs {
				elem.Add(x)
			}
			check(name+" Add", &elem)
		}
		// Merges of states near the pend budget, and of a state with
		// itself, before and after the carry pass they trigger.
		cut := len(xs) / 3
		var a, b State
		a.AddSlice(xs[:cut])
		b.AddSliceRef(xs[cut:])
		check(name+" parts", &a)
		check(name+" parts", &b)
		a.Merge(&b)
		check(name+" merged", &a)
		twice := fast
		twice.Merge(&fast)
		check(name+" self-merge", &twice)
		fast.renorm()
		check(name+" renormalized", &fast)
		fast.AddSlice(xs[:cut])
		check(name+" after renorm", &fast)
	}
}
