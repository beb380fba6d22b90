// Package sum implements the four summation algorithms studied in the
// paper — standard iterative (ST), Kahan compensated (K), composite
// precision (CP), and prerounded/binned (PR) — plus the Neumaier and
// pairwise variants used for ablations.
//
// Each algorithm is available in three forms:
//
//   - one-shot: Standard(xs), Kahan(xs), ... — sum a slice directly;
//   - streaming: an Accumulator fed one value at a time (the "local sum"
//     phase of a distributed reduction);
//   - mergeable: a reduce.Monoid whose partial states can be combined at
//     the internal nodes of an arbitrary reduction tree (the "global
//     reduce" phase, where nondeterministic tree shape bites).
//
// The Algorithm enum is the runtime-selectable registry the intelligent
// selector draws from; CostRank orders algorithms by expense, matching
// the paper's ST < K < CP < PR ladder (Figs 4–5).
package sum

import (
	"fmt"

	"repro/internal/reduce"
)

// Algorithm identifies a summation algorithm in the runtime registry.
type Algorithm uint8

const (
	// Standard is the naive iterative summation (ST in the paper).
	StandardAlg Algorithm = iota
	// PairwiseAlg is recursive pairwise summation (balanced-tree ST).
	PairwiseAlg
	// KahanAlg is Kahan's compensated summation (K).
	KahanAlg
	// NeumaierAlg is Neumaier's improved compensated summation.
	NeumaierAlg
	// CompositeAlg is composite-precision summation (CP): the error term
	// is carried separately and folded in only at the end.
	CompositeAlg
	// PreroundedAlg is windowed prerounded reproducible summation (PR),
	// bitwise reproducible under any reduction order.
	PreroundedAlg
	// BinnedAlg is single-pass binned (indexed) reproducible summation
	// (BN): full-exponent-range fixed bins, bitwise reproducible under
	// any reduction order at a small constant factor over ST. Appended
	// after PreroundedAlg so persisted numeric values stay stable; its
	// place in the cost ladder comes from CostRank and the Algorithms
	// ordering, not the enum value.
	BinnedAlg

	numAlgorithms
)

// Algorithms lists every registered algorithm in cost order.
var Algorithms = []Algorithm{
	StandardAlg, PairwiseAlg, BinnedAlg, KahanAlg, NeumaierAlg, CompositeAlg, PreroundedAlg,
}

// SelectionLadder lists, in cost order, the algorithms the runtime
// selector escalates through: the paper's ST < K < CP < PR ladder with
// the binned rung (BN) slotted directly after ST. With the two-level
// deposit kernel BN runs within 2x of the ST floor — measured cheaper
// than the Kahan kernel (BENCH_binned.json vs BENCH_kernels.json) —
// so any request the plain sum cannot satisfy escalates straight to
// the exact, bitwise-reproducible rung: reproducible by default. The
// compensated and expensive rungs remain for policy pinning
// (selector.Static, TunePR) and calibration tables. Policies walk
// this ladder instead of hardcoding any particular reproducible
// algorithm.
var SelectionLadder = []Algorithm{
	StandardAlg, BinnedAlg, KahanAlg, CompositeAlg, PreroundedAlg,
}

// CheapestReproducible returns the lowest-cost algorithm whose results
// are bitwise reproducible under arbitrary reduction orders — the
// ladder-driven replacement for hardcoded PreroundedAlg fallbacks.
func CheapestReproducible() Algorithm {
	best := PreroundedAlg
	for _, a := range Algorithms {
		if a.Reproducible() && a.CostRank() < best.CostRank() {
			best = a
		}
	}
	return best
}

// PaperAlgorithms lists the four algorithms the paper evaluates, in the
// paper's cost order ST < K < CP < PR.
var PaperAlgorithms = []Algorithm{StandardAlg, KahanAlg, CompositeAlg, PreroundedAlg}

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case StandardAlg:
		return "ST"
	case PairwiseAlg:
		return "PW"
	case KahanAlg:
		return "K"
	case NeumaierAlg:
		return "N"
	case CompositeAlg:
		return "CP"
	case PreroundedAlg:
		return "PR"
	case BinnedAlg:
		return "BN"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// FullName returns the descriptive name used in prose and reports.
func (a Algorithm) FullName() string {
	switch a {
	case StandardAlg:
		return "standard iterative summation"
	case PairwiseAlg:
		return "pairwise summation"
	case KahanAlg:
		return "Kahan compensated summation"
	case NeumaierAlg:
		return "Neumaier compensated summation"
	case CompositeAlg:
		return "composite precision summation"
	case PreroundedAlg:
		return "prerounded (windowed binned) summation"
	case BinnedAlg:
		return "binned (indexed) reproducible summation"
	}
	return a.String()
}

// CostRank orders algorithms by runtime expense: lower is cheaper. The
// non-reproducible rungs keep the measured ladder of the paper's
// Figs 4–5 (ST < K < CP < PR); BN's rank reflects the measured cost of
// the two-level deposit kernel — under 2x the ST floor and below the
// Kahan kernel at 1M elements (BENCH_binned.json) — which places the
// cheapest reproducible rung directly after the plain loops.
func (a Algorithm) CostRank() int {
	switch a {
	case StandardAlg:
		return 0
	case PairwiseAlg:
		return 1
	case BinnedAlg:
		return 2
	case KahanAlg:
		return 3
	case NeumaierAlg:
		return 4
	case CompositeAlg:
		return 5
	case PreroundedAlg:
		return 6
	}
	return int(a) + 100
}

// Valid reports whether a names a registered algorithm.
func (a Algorithm) Valid() bool { return a < numAlgorithms }

// MarshalText encodes the algorithm as its abbreviation (so JSON maps
// keyed by Algorithm read "ST"/"K"/"CP"/"PR" instead of integers).
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText decodes an abbreviation or full name.
func (a *Algorithm) UnmarshalText(b []byte) error {
	alg, err := ParseAlgorithm(string(b))
	if err != nil {
		return err
	}
	*a = alg
	return nil
}

// ParseAlgorithm maps a paper abbreviation or full name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms {
		if s == a.String() || s == a.FullName() {
			return a, nil
		}
	}
	return 0, fmt.Errorf("sum: unknown algorithm %q", s)
}

// Sum computes the one-shot sum of xs with algorithm a.
func (a Algorithm) Sum(xs []float64) float64 {
	switch a {
	case StandardAlg:
		return Standard(xs)
	case PairwiseAlg:
		return Pairwise(xs)
	case KahanAlg:
		return Kahan(xs)
	case NeumaierAlg:
		return Neumaier(xs)
	case CompositeAlg:
		return Composite(xs)
	case PreroundedAlg:
		return Prerounded(xs)
	case BinnedAlg:
		return Binned(xs)
	}
	panic("sum: invalid algorithm " + a.String())
}

// NewAccumulator returns a fresh streaming accumulator for a.
func (a Algorithm) NewAccumulator() Accumulator {
	switch a {
	case StandardAlg, PairwiseAlg:
		return &StandardAcc{}
	case KahanAlg:
		return &KahanAcc{}
	case NeumaierAlg:
		return &NeumaierAcc{}
	case CompositeAlg:
		return &CompositeAcc{}
	case PreroundedAlg:
		return NewPreroundedAcc(DefaultPRConfig())
	case BinnedAlg:
		return &BinnedAcc{}
	}
	panic("sum: invalid algorithm " + a.String())
}

// Op returns the dynamic mergeable reduction operator for a, for use
// with simulated collectives and runtime selection. BN's operator
// merges in place (see reduce.Op.Merge for the ownership rule); the
// others box their monoid's state by value.
func (a Algorithm) Op() reduce.Op {
	switch a {
	case StandardAlg, PairwiseAlg:
		return reduce.Boxed(a.String(), STMonoid{})
	case KahanAlg:
		return reduce.Boxed(a.String(), KahanMonoid{})
	case NeumaierAlg:
		return reduce.Boxed(a.String(), NeumaierMonoid{})
	case CompositeAlg:
		return reduce.Boxed(a.String(), CPMonoid{})
	case PreroundedAlg:
		return reduce.Boxed(a.String(), DefaultPRConfig().Monoid())
	case BinnedAlg:
		return bnOp{}
	}
	panic("sum: invalid algorithm " + a.String())
}

// Reproducible reports whether a guarantees bitwise-identical results
// under arbitrary reduction trees. Call sites must not assume a single
// reproducible algorithm: use CheapestReproducible or walk
// SelectionLadder instead of hardcoding one.
func (a Algorithm) Reproducible() bool {
	return a == PreroundedAlg || a == BinnedAlg
}

// Accumulator is a streaming summation state: the "local sum" half of a
// distributed reduction.
type Accumulator interface {
	// Add folds one value into the running sum.
	Add(x float64)
	// Sum returns the current value of the sum.
	Sum() float64
	// Reset restores the accumulator to zero.
	Reset()
}
