// Package wire implements "reprostate v1": a versioned, canonical
// binary encoding for the binned (BN) engine's mergeable State — BN
// states only. It is the substrate of the reduction-as-a-service layer
// (internal/aggsrv): ranks and clients ship partial states over the
// network, servers merge them in any arrival order, and the
// merge-order invariance of the engine guarantees the result's bits.
//
// Canonical: a given state has exactly one encoding. The layout is
// fixed per kind — every field is a fixed-width little-endian word,
// floats are carried as their IEEE-754 bit patterns (so NaN payloads,
// -0, ±Inf, and denormals round-trip exactly), and booleans/flag bytes
// admit only their defined values — so encode→decode→re-encode is
// byte-identical, and any accepted byte string re-encodes to itself.
//
// Strict: decoding rejects, with a positioned error, anything that is
// not a canonical encoding of a reachable state — wrong magic, unknown
// versions, unknown kinds, a payload length that disagrees with the
// kind, truncation at any boundary, undefined flag bits, and counter
// or bin values outside the engine's documented invariants (validated
// by binned.Restore, so a forged renorm counter can never void the
// exactness headroom of subsequent deposits). Decoding arbitrary bytes
// never panics and never allocates beyond the fixed decoded state
// itself.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/binned"
)

// Version is the encoding version this package writes and accepts.
const Version = 1

// magic opens every frame: "RPST" (reprostate).
var magic = [4]byte{'R', 'P', 'S', 'T'}

// HeaderSize is the fixed frame header: magic, version byte, kind byte,
// and the payload length as a little-endian uint16.
const HeaderSize = 8

// Kind identifies the encoded state type.
type Kind uint8

// KindBinned is a binned.State (BN partial sum), the only kind. Kinds
// 2 and 3 (superaccumulator and fused-profile states) were retired
// unsent and are rejected with ErrKind.
const KindBinned Kind = 1

// String names the kind for diagnostics.
func (k Kind) String() string {
	if k == KindBinned {
		return "binned"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// binnedPayload is the BN payload size: every field is 8 bytes except
// the trailing flags byte.
const binnedPayload = binned.StateSlots*8 + 4*8 + 1 // bins, count, pend, posInf, negInf, flags

// Decoding errors. ErrTruncated distinguishes "need more bytes" from
// corruption, so stream readers can grow their buffer instead of
// dropping the connection.
var (
	ErrTruncated = errors.New("wire: truncated reprostate frame")
	ErrMagic     = errors.New("wire: bad magic (not a reprostate frame)")
	ErrVersion   = errors.New("wire: unknown reprostate version")
	ErrKind      = errors.New("wire: unknown reprostate kind")
	ErrCorrupt   = errors.New("wire: corrupt reprostate frame")
)

// payloadSize returns the fixed payload length for a kind, or 0 for an
// unknown kind.
func payloadSize(k Kind) int {
	if k == KindBinned {
		return binnedPayload
	}
	return 0
}

// EncodedSize returns the total frame length (header + payload) for a
// kind, or 0 for an unknown kind.
func EncodedSize(k Kind) int {
	if n := payloadSize(k); n > 0 {
		return HeaderSize + n
	}
	return 0
}

// Peek validates the frame header at the start of b and returns the
// kind and total frame length without decoding the payload. It rejects
// bad magic, unknown versions and kinds, a length field that disagrees
// with the kind's fixed layout, and truncation (b shorter than the
// header, or than the declared frame).
func Peek(b []byte) (Kind, int, error) {
	if len(b) < HeaderSize {
		return 0, 0, ErrTruncated
	}
	if [4]byte(b[:4]) != magic {
		return 0, 0, ErrMagic
	}
	if b[4] != Version {
		return 0, 0, fmt.Errorf("%w %d", ErrVersion, b[4])
	}
	k := Kind(b[5])
	want := payloadSize(k)
	if want == 0 {
		return 0, 0, fmt.Errorf("%w %d", ErrKind, b[5])
	}
	if got := int(binary.LittleEndian.Uint16(b[6:8])); got != want {
		return 0, 0, fmt.Errorf("%w: %s payload length %d, want %d", ErrCorrupt, k, got, want)
	}
	if len(b) < HeaderSize+want {
		return 0, 0, ErrTruncated
	}
	return k, HeaderSize + want, nil
}

// appendHeader writes the frame header for kind k.
func appendHeader(dst []byte, k Kind) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, byte(k))
	return binary.LittleEndian.AppendUint16(dst, uint16(payloadSize(k)))
}

// AppendBinned appends the canonical encoding of a binned state
// snapshot to dst and returns the extended slice.
func AppendBinned(dst []byte, s *binned.Snapshot) []byte {
	dst = appendHeader(dst, KindBinned)
	for _, v := range s.Bins {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Pend))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.PosInf))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.NegInf))
	return append(dst, boolByte(s.NaN))
}

// DecodeBinned decodes one binned frame from the start of b, returning
// the restored state and the number of bytes consumed. The state is
// validated (binned.Restore), so it is safe to merge and deposit into.
func DecodeBinned(b []byte) (binned.State, int, error) {
	_, n, err := Peek(b)
	if err != nil {
		return binned.State{}, 0, err
	}
	p := b[HeaderSize:n]
	var s binned.Snapshot
	for i := range s.Bins {
		s.Bins[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	off := len(s.Bins) * 8
	s.Count = int64(binary.LittleEndian.Uint64(p[off:]))
	s.Pend = int64(binary.LittleEndian.Uint64(p[off+8:]))
	s.PosInf = int64(binary.LittleEndian.Uint64(p[off+16:]))
	s.NegInf = int64(binary.LittleEndian.Uint64(p[off+24:]))
	nan, err := decodeBool(p[off+32])
	if err != nil {
		return binned.State{}, 0, err
	}
	s.NaN = nan
	st, err := binned.Restore(s)
	if err != nil {
		return binned.State{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return st, n, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decodeBool admits only the canonical encodings 0 and 1, so a decoded
// frame always re-encodes to the same bytes.
func decodeBool(b byte) (bool, error) {
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("%w: non-canonical bool byte %#x", ErrCorrupt, b)
}
