package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/binned"
	"repro/internal/gen"
)

// corpusInputs are the adversarial operand sets the round-trip corpus
// states are built from: specials (NaN/±Inf/-0), denormals, huge
// top-window values, cancellation, and a renorm-boundary bulk stream.
func corpusInputs() [][]float64 {
	bulk := make([]float64, binned.MaxPend+17) // crosses the BN carry schedule
	for i := range bulk {
		bulk[i] = float64(i%1009) * 0x1p-25
	}
	return [][]float64{
		nil,
		{0},
		{math.Copysign(0, -1)},
		{1, -1},
		{0x1p-1074, -0x1p-1070, 0x1p-1040},
		{math.Inf(1)},
		{math.Inf(-1), math.Inf(-1)},
		{math.Inf(1), math.Inf(-1)},
		{math.NaN()},
		{math.NaN(), 1, math.Inf(1)},
		{0x1.fffffffffffffp1023, 0x1p1000, -0x1p990},
		{0x1.fffffffffffffp1023, 0x1.fffffffffffffp1023}, // overflows finalize
		gen.Spec{N: 5000, Cond: 1e12, DynRange: 40, Seed: 7}.Generate(),
		gen.SumZeroSeries(4096, 32, 9),
		bulk,
	}
}

// binnedCorpus builds one BN state per corpus input (plus merged and
// specials-heavy combinations).
func binnedCorpus() []*binned.State {
	var out []*binned.State
	for _, xs := range corpusInputs() {
		st := new(binned.State)
		st.AddSlice(xs)
		out = append(out, st)
	}
	merged := new(binned.State)
	for _, st := range out {
		merged.Merge(st)
	}
	out = append(out, merged)
	return out
}

// retiredFrame is a header-shaped frame of a retired kind at its old
// payload length — kind 2 (superaccumulator, 553 bytes) or kind 3
// (fused profile, 81 bytes) — which decoding rejects with ErrKind.
func retiredFrame(k Kind, payload int) []byte {
	b := append([]byte(nil), magic[:]...)
	b = append(b, Version, byte(k))
	b = binary.LittleEndian.AppendUint16(b, uint16(payload))
	return append(b, make([]byte, payload)...)
}

// TestWireRoundTripBinned: encode→decode→re-encode is byte-identical
// for every corpus state, and the decoded state is field-for-field the
// original.
func TestWireRoundTripBinned(t *testing.T) {
	for i, st := range binnedCorpus() {
		snap := st.Snapshot()
		enc := AppendBinned(nil, &snap)
		if len(enc) != EncodedSize(KindBinned) {
			t.Fatalf("state %d: encoded %d bytes, want %d", i, len(enc), EncodedSize(KindBinned))
		}
		dec, n, err := DecodeBinned(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("state %d: decode failed: n=%d err=%v", i, n, err)
		}
		ds := dec.Snapshot()
		if ds != snap {
			// Bins with NaN payloads compare unequal via ==; fall back
			// to the bit comparison.
			if !snapshotsBitEqual(&ds, &snap) {
				t.Fatalf("state %d: decoded snapshot differs", i)
			}
		}
		if math.Float64bits(dec.Finalize()) != math.Float64bits(st.Finalize()) {
			t.Fatalf("state %d: Finalize bits differ after round-trip", i)
		}
		re := AppendBinned(nil, &ds)
		if !bytes.Equal(re, enc) {
			t.Fatalf("state %d: re-encode not byte-identical", i)
		}
	}
}

func snapshotsBitEqual(a, b *binned.Snapshot) bool {
	for i := range a.Bins {
		if math.Float64bits(a.Bins[i]) != math.Float64bits(b.Bins[i]) {
			return false
		}
	}
	return a.Count == b.Count && a.Pend == b.Pend &&
		a.PosInf == b.PosInf && a.NegInf == b.NegInf && a.NaN == b.NaN
}

// TestWireMergePin: merging decoded states is bitwise-identical to
// merging the in-memory originals — the property the aggregation
// server's correctness rests on.
func TestWireMergePin(t *testing.T) {
	states := binnedCorpus()
	for i := range states {
		for j := range states {
			ref := *states[i]
			ref.Merge(states[j])

			ei := AppendBinned(nil, ptrSnap(states[i]))
			ej := AppendBinned(nil, ptrSnap(states[j]))
			di, _, err := DecodeBinned(ei)
			if err != nil {
				t.Fatal(err)
			}
			dj, _, err := DecodeBinned(ej)
			if err != nil {
				t.Fatal(err)
			}
			di.Merge(&dj)

			rs, ds := ref.Snapshot(), di.Snapshot()
			if !snapshotsBitEqual(&ds, &rs) {
				t.Fatalf("merge(%d, %d): decoded merge differs from in-memory merge", i, j)
			}
			if math.Float64bits(ref.Finalize()) != math.Float64bits(di.Finalize()) {
				t.Fatalf("merge(%d, %d): Finalize bits differ", i, j)
			}
		}
	}
}

// TestWireRejectsTruncation: every proper prefix of a valid frame is
// rejected with ErrTruncated — at every byte boundary, not just the
// header.
func TestWireRejectsTruncation(t *testing.T) {
	var st binned.State
	st.AddSlice([]float64{1, -2.5, 0x1p-1074, math.Inf(1)})
	snap := st.Snapshot()
	frame := AppendBinned(nil, &snap)
	for i := 0; i < len(frame); i++ {
		if _, _, err := Peek(frame[:i]); err == nil {
			t.Fatalf("Peek accepted a %d-byte prefix of %d", i, len(frame))
		}
		if _, _, err := DecodeBinned(frame[:i]); err == nil {
			t.Fatalf("DecodeBinned accepted a %d-byte prefix of %d", i, len(frame))
		}
	}
}

// TestWireRejectsCorruption: unknown versions and kinds, bad magic, a
// disagreeing length field, non-canonical flag bytes, and invariant
// violations are all rejected.
func TestWireRejectsCorruption(t *testing.T) {
	var st binned.State
	st.AddSlice([]float64{1, 2, 3})
	snap := st.Snapshot()
	good := AppendBinned(nil, &snap)

	mutate := func(mut func([]byte)) []byte {
		b := bytes.Clone(good)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' })},
		{"future version", mutate(func(b []byte) { b[4] = 2 })},
		{"version zero", mutate(func(b []byte) { b[4] = 0 })},
		{"unknown kind", mutate(func(b []byte) { b[5] = 99 })},
		{"unknown kind", mutate(func(b []byte) { b[5] = 2 })},
		{"unknown kind", mutate(func(b []byte) { b[5] = 3 })},
		{"unknown kind", retiredFrame(2, 553)},
		{"unknown kind", retiredFrame(3, 81)},
		{"kind zero", mutate(func(b []byte) { b[5] = 0 })},
		{"length field low", mutate(func(b []byte) { b[6] = 1; b[7] = 0 })},
		{"length field high", mutate(func(b []byte) { b[6] = 0xff; b[7] = 0xff })},
		{"non-canonical nan byte", mutate(func(b []byte) { b[len(b)-1] = 2 })},
		{"negative count", mutate(func(b []byte) {
			off := HeaderSize + binned.StateSlots*8
			for i := 0; i < 8; i++ {
				b[off+i] = 0xff
			}
		})},
		{"forged pend", mutate(func(b []byte) {
			off := HeaderSize + binned.StateSlots*8 + 8
			b[off+3] = 0x7f // pend ~ 2^27+ >= MaxPend
		})},
	}
	for _, tc := range cases {
		_, _, err := DecodeBinned(tc.b)
		if err == nil {
			t.Errorf("%s: DecodeBinned accepted corrupt frame", tc.name)
		}
		if tc.name == "unknown kind" && !errors.Is(err, ErrKind) {
			t.Errorf("%s %d: got %v, want ErrKind", tc.name, tc.b[5], err)
		}
	}
}

func ptrSnap(st *binned.State) *binned.Snapshot {
	s := st.Snapshot()
	return &s
}
