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
	"slices"

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

// algInfo is one row of the registry: every per-algorithm fact the
// package serves, so the cost order and each algorithm's forms are
// stated exactly once.
type algInfo struct {
	abbr, name   string
	rank         int // CostRank: lower is cheaper
	reproducible bool
	sum          func(xs []float64) float64
	acc          func() Accumulator
	op           reduce.Op
	dot          func(a, b []float64) float64
}

// registry holds one row per Algorithm, indexed by its enum value.
//
// The ranks keep the measured ladder of the paper's Figs 4–5 for the
// non-reproducible rungs (ST < K < CP < PR); BN's rank reflects the
// measured cost of the two-level deposit kernel — under 2x the ST floor
// and below the Kahan kernel at 1M elements (BENCH_binned.json) — which
// places the cheapest reproducible rung directly after the plain loops.
// PW shares ST's accumulator, operator and dot product: its pairwise
// shape lives in the one-shot sum and in the engines' merge trees. BN's
// operator merges in place (see reduce.Op.Merge for the ownership
// rule); the others box their monoid's state by value.
var registry = [numAlgorithms]algInfo{
	StandardAlg: {"ST", "standard iterative summation", 0, false, Standard,
		func() Accumulator { return &StandardAcc{} }, reduce.Boxed("ST", STMonoid{}), DotStandard},
	PairwiseAlg: {"PW", "pairwise summation", 1, false, Pairwise,
		func() Accumulator { return &StandardAcc{} }, reduce.Boxed("PW", STMonoid{}), DotStandard},
	BinnedAlg: {"BN", "binned (indexed) reproducible summation", 2, true, Binned,
		func() Accumulator { return &BinnedAcc{} }, bnOp{}, DotBinned},
	KahanAlg: {"K", "Kahan compensated summation", 3, false, Kahan,
		func() Accumulator { return &KahanAcc{} }, reduce.Boxed("K", KahanMonoid{}), DotKahan},
	NeumaierAlg: {"N", "Neumaier compensated summation", 4, false, Neumaier,
		func() Accumulator { return &NeumaierAcc{} }, reduce.Boxed("N", NeumaierMonoid{}), DotKahan},
	CompositeAlg: {"CP", "composite precision summation", 5, false, Composite,
		func() Accumulator { return &CompositeAcc{} }, reduce.Boxed("CP", CPMonoid{}), DotComposite},
	PreroundedAlg: {"PR", "prerounded (windowed binned) summation", 6, true, Prerounded,
		func() Accumulator { return NewPreroundedAcc(DefaultPRConfig()) },
		reduce.Boxed("PR", DefaultPRConfig().Monoid()), DotPrerounded},
}

// row returns a's registry row, panicking on an unregistered value.
func (a Algorithm) row() *algInfo {
	if !a.Valid() {
		panic("sum: invalid algorithm " + a.String())
	}
	return &registry[a]
}

// Algorithms lists every registered algorithm in cost order.
var Algorithms = byCost()

func byCost() []Algorithm {
	out := make([]Algorithm, numAlgorithms)
	for i := range out {
		out[i] = Algorithm(i)
	}
	slices.SortFunc(out, func(a, b Algorithm) int { return registry[a].rank - registry[b].rank })
	return out
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
	i := slices.IndexFunc(Algorithms, Algorithm.Reproducible)
	return Algorithms[i]
}

// PaperAlgorithms lists the four algorithms the paper evaluates, in the
// paper's cost order ST < K < CP < PR.
var PaperAlgorithms = []Algorithm{StandardAlg, KahanAlg, CompositeAlg, PreroundedAlg}

// String returns the paper's abbreviation for the algorithm.
func (a Algorithm) String() string {
	if a.Valid() {
		return registry[a].abbr
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// FullName returns the descriptive name used in prose and reports.
func (a Algorithm) FullName() string {
	if a.Valid() {
		return registry[a].name
	}
	return a.String()
}

// CostRank orders algorithms by runtime expense: lower is cheaper (see
// registry for the measurements behind the order).
func (a Algorithm) CostRank() int {
	if a.Valid() {
		return registry[a].rank
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
func (a Algorithm) Sum(xs []float64) float64 { return a.row().sum(xs) }

// NewAccumulator returns a fresh streaming accumulator for a.
func (a Algorithm) NewAccumulator() Accumulator { return a.row().acc() }

// Op returns the dynamic mergeable reduction operator for a, for use
// with simulated collectives, the parallel engine and runtime
// selection.
func (a Algorithm) Op() reduce.Op { return a.row().op }

// Reproducible reports whether a guarantees bitwise-identical results
// under arbitrary reduction trees. Call sites must not assume a single
// reproducible algorithm: use CheapestReproducible or walk
// SelectionLadder instead of hardcoding one.
func (a Algorithm) Reproducible() bool { return a.Valid() && registry[a].reproducible }

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
