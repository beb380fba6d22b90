package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/binned"
)

// checkDecodeProperties is the fuzz property, shared by the fuzz target
// and the deterministic corpus replay: decoding arbitrary bytes must
// never panic (the harness catches that), a successful Peek must agree
// with DecodeBinned, and any accepted frame must re-encode
// byte-identically to the bytes that were consumed — the canonicality
// contract.
func checkDecodeProperties(t *testing.T, data []byte) {
	t.Helper()
	k, n, err := Peek(data)
	if err != nil {
		// Rejected input: DecodeBinned must reject it too (it begins
		// with the same header check).
		if _, _, err := DecodeBinned(data); err == nil {
			t.Fatal("Peek rejected but DecodeBinned accepted")
		}
		return
	}
	if n < HeaderSize || n > len(data) {
		t.Fatalf("Peek returned frame length %d outside [%d, %d]", n, HeaderSize, len(data))
	}
	if k != KindBinned {
		t.Fatalf("Peek returned unknown kind %d", k)
	}
	st, dn, err := DecodeBinned(data)
	if err != nil {
		return // header fine, payload violates a state invariant
	}
	if dn != n {
		t.Fatalf("DecodeBinned consumed %d, Peek said %d", dn, n)
	}
	s := st.Snapshot()
	if re := AppendBinned(nil, &s); !bytes.Equal(re, data[:n]) {
		t.Fatal("accepted binned frame does not re-encode byte-identically")
	}
}

// seedFrames builds the in-code seed corpus: two valid binned frames
// (specials included), one frame of each retired kind, and targeted
// corruptions of all four.
func seedFrames() [][]byte {
	var st binned.State
	st.AddSlice([]float64{1, -0x1p-1074, 6.5e300, 0})
	var poisoned binned.State
	poisoned.AddSlice([]float64{0 * 1, 1})
	poisoned.Add(0x1p1023)
	ss, ps := st.Snapshot(), poisoned.Snapshot()

	frames := [][]byte{
		AppendBinned(nil, &ss),
		AppendBinned(nil, &ps),
		retiredFrame(2, 553),
		retiredFrame(3, 81),
	}
	// Corrupted variants: flipped version, kind, flags, and a torn tail.
	for _, f := range frames[:4] {
		v := bytes.Clone(f)
		v[4] = 7
		frames = append(frames, v)
		k := bytes.Clone(f)
		k[5] ^= 0x5a
		frames = append(frames, k)
		fl := bytes.Clone(f)
		fl[len(fl)-1] = 0xff
		frames = append(frames, fl)
		frames = append(frames, f[:len(f)-3], f[:HeaderSize], f[:3])
	}
	return frames
}

// FuzzWireDecode fuzzes the reprostate decoder: arbitrary bytes must
// never panic or allocate unbounded memory (the layout is fixed-size by
// construction), and every accepted frame must re-encode
// byte-identically. The seed corpus below is doubled by the checked-in
// files under testdata/fuzz/FuzzWireDecode, which the normal test suite
// replays deterministically (go test runs all seeds even without
// -fuzz; TestFuzzCorpusReplay additionally pins the files explicitly).
func FuzzWireDecode(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeProperties(t, data)
	})
}

// TestFuzzCorpusReplay replays the checked-in fuzz corpus files through
// the decode property deterministically, so the corpus keeps failing
// loudly if it ever goes stale or the property regresses — independent
// of the go test fuzz plumbing.
func TestFuzzCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(ents) == 0 {
		t.Fatal("seed corpus directory is empty")
	}
	for _, e := range ents {
		data, err := parseCorpusFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			checkDecodeProperties(t, data)
		})
	}
}

// parseCorpusFile reads one go-fuzz corpus file ("go test fuzz v1"
// followed by a []byte literal).
func parseCorpusFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) != 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, fmt.Errorf("not a go fuzz v1 corpus file")
	}
	body := strings.TrimSpace(lines[1])
	const pre, post = `[]byte(`, `)`
	if !strings.HasPrefix(body, pre) || !strings.HasSuffix(body, post) {
		return nil, fmt.Errorf("unexpected corpus entry %q", body)
	}
	s, err := strconv.Unquote(body[len(pre) : len(body)-len(post)])
	if err != nil {
		return nil, fmt.Errorf("unquoting corpus entry: %v", err)
	}
	return []byte(s), nil
}
