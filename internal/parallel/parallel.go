// Package parallel is a deterministic chunked worker-pool reduction
// engine: the bridge between this repository's mergeable summation
// operators and actual multi-core speedup, without reintroducing the
// run-to-run nondeterminism the paper studies.
//
// The determinism contract has three legs:
//
//  1. Fixed partitioning. The input is cut into chunks of exactly
//     Config.ChunkSize elements (the last chunk may be short). Chunk
//     boundaries depend only on len(xs) and ChunkSize — never on the
//     worker count or on scheduling.
//  2. Fixed intra-chunk order. Each chunk is folded left-to-right with
//     the algorithm's monoid, exactly as a sequential pass over that
//     chunk would.
//  3. Fixed merge tree. The per-chunk partial states are combined with a
//     balanced binary tree whose pairing depends only on the number of
//     chunks, executed in one goroutine at the root.
//
// Workers only race for *which chunk to compute next*; every chunk's
// partial state is a pure function of the chunk's elements, so the tree
// sees identical inputs in an identical shape regardless of how many
// workers ran or how the scheduler interleaved them. The result is
// therefore bitwise-identical across worker counts, and bitwise equal to
// a single-threaded execution of the same plan (SeqReduce).
//
// This is the "fixed reduction tree" remedy of Goodrich & Eldawy
// (parallel summation with reproducibility) applied at the shared-memory
// level: the plan (ChunkSize, tree shape) is part of the reproducibility
// contract, the worker count is not. Note that a *different* ChunkSize
// is a different plan and may give a (deterministically) different
// result for non-reproducible operators; only the prerounded operator is
// invariant to the plan itself.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/reduce"
)

// DefaultChunkSize is the fallback chunk length: large enough to
// amortize scheduling, small enough to load-balance a few dozen chunks
// over typical core counts at the 1M-element scale.
const DefaultChunkSize = 1 << 15

// Config tunes the engine. The zero value means "auto": GOMAXPROCS
// workers and DefaultChunkSize elements per chunk.
type Config struct {
	// Workers bounds pool size; <= 0 selects runtime.GOMAXPROCS(0).
	// Workers == 1 still runs the chunked plan, just on one goroutine,
	// and produces the identical bits.
	Workers int
	// ChunkSize is the fixed partition width in elements; <= 0 selects
	// DefaultChunkSize. It is part of the determinism contract: two runs
	// agree bitwise only if they use the same ChunkSize.
	ChunkSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	return c
}

// NumChunks returns the number of chunks the plan cuts n elements into.
func (c Config) NumChunks(n int) int {
	c = c.withDefaults()
	return (n + c.ChunkSize - 1) / c.ChunkSize
}

// For runs f(i) for every i in [0, n) on a bounded pool of workers.
// Iterations must be independent; completion order is unspecified but
// For returns only after every iteration finished.
func For(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// MapReduce partitions [0, n) into the plan's fixed chunks, computes
// chunk(lo, hi) for each on the worker pool, and combines the per-chunk
// results with merge over the fixed balanced tree. ok is false when
// n <= 0 (there is nothing to reduce and no identity available).
//
// chunk must be a pure function of its interval. merge may consume
// (mutate and return) its arguments — every partial state is handed to
// merge at most once — but must not touch states it was not given.
func MapReduce[S any](n int, cfg Config, chunk func(lo, hi int) S, merge func(a, b S) S) (s S, ok bool) {
	if n <= 0 {
		return s, false
	}
	cfg = cfg.withDefaults()
	nc := cfg.NumChunks(n)
	partials := make([]S, nc)
	For(nc, cfg.Workers, func(i int) {
		lo := i * cfg.ChunkSize
		hi := lo + cfg.ChunkSize
		if hi > n {
			hi = n
		}
		partials[i] = chunk(lo, hi)
	})
	return MergeTree(partials, merge), true
}

// MapReduceSeq is the single-goroutine reference execution of the exact
// same plan as MapReduce: same chunk boundaries, same merge tree. It is
// the oracle the engine's bitwise-equality tests compare against, and a
// zero-overhead baseline for benchmarks.
func MapReduceSeq[S any](n int, cfg Config, chunk func(lo, hi int) S, merge func(a, b S) S) (s S, ok bool) {
	if n <= 0 {
		return s, false
	}
	cfg = cfg.withDefaults()
	nc := cfg.NumChunks(n)
	partials := make([]S, nc)
	for i := 0; i < nc; i++ {
		lo := i * cfg.ChunkSize
		hi := lo + cfg.ChunkSize
		if hi > n {
			hi = n
		}
		partials[i] = chunk(lo, hi)
	}
	return MergeTree(partials, merge), true
}

// MergeTree folds the states with a balanced binary tree whose pairing
// depends only on len(states): adjacent pairs are merged level by level,
// an odd trailing state is carried up unmerged. The pairing is identical
// to reduce.Pairwise's, and the fold runs in the calling goroutine, so
// the combination order is a fixed function of the state count.
// MergeTree overwrites states as scratch space. Panics on empty input.
func MergeTree[S any](states []S, merge func(a, b S) S) S {
	if len(states) == 0 {
		panic("parallel: MergeTree on empty state list")
	}
	n := len(states)
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			states[i] = merge(states[2*i], states[2*i+1])
		}
		if n%2 == 1 {
			states[half] = states[n-1]
			n = half + 1
		} else {
			n = half
		}
	}
	return states[0]
}

// Reduce sums xs under monoid m with the parallel engine: fixed chunks
// folded left-to-right (reduce.FoldState, so a SliceFolder's batch
// kernel runs with identical bits), fixed balanced merge tree, Finalize
// at the root. The result is bitwise-identical across worker counts and
// equal to SeqReduce with the same Config.
func Reduce[S any](m reduce.Monoid[S], xs []float64, cfg Config) float64 {
	st, ok := MapReduce(len(xs), cfg, func(lo, hi int) S {
		return reduce.FoldState(m, xs[lo:hi])
	}, m.Merge)
	if !ok {
		return m.Finalize(m.Leaf(0))
	}
	return m.Finalize(st)
}

// SeqReduce executes the identical plan as Reduce on one goroutine.
func SeqReduce[S any](m reduce.Monoid[S], xs []float64, cfg Config) float64 {
	st, ok := MapReduceSeq(len(xs), cfg, func(lo, hi int) S {
		return reduce.FoldState(m, xs[lo:hi])
	}, m.Merge)
	if !ok {
		return m.Finalize(m.Leaf(0))
	}
	return m.Finalize(st)
}
