package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro"
	"repro/internal/binned"
	"repro/internal/gen"
	"repro/internal/selector"
	"repro/internal/sum"
)

// sum-local: one goroutine calls repro.Runtime.Sum, one Runtime (with
// the default decision cache) per tolerance class. The inputs are
// gen.Spec sets at three sizes crossed with (k, dr) cells of the fig12
// grid; per size the request count is inversely proportional to n, so
// each size contributes the same number of elements. The small-n
// majority exposes per-call overhead, the 2^22 sets kernel throughput,
// and tolerance 0 is the request that can only resolve to BN.

var (
	localSizes = []int{1 << 10, 1 << 16, 1 << 22}
	localCells = []struct {
		k  float64
		dr int
	}{{1, 0}, {1, 32}, {1e8, 0}, {1e8, 32}, {math.Inf(1), 0}, {math.Inf(1), 32}}
	localTols = []float64{1e-3, 1e-13, 0}
)

// localCombos is the number of (cell, tolerance) pairs. An epoch is
// localCombos cycles, so every size meets every pair equally often and
// every epoch is the same work in a seed-shuffled order within sizes.
var localCombos = len(localCells) * len(localTols)

type localSet struct {
	xs []float64
	or oracle
}

type localOp struct{ set, tol int }

type localBench struct {
	cfg   config
	sets  []localSet
	epoch []localOp
	// blockEnds[i] is the end of size i's ops in epoch.
	blockEnds []int
	rng       *rand.Rand
	// opIndex numbers every op of the run, for planting.
	opIndex int64
}

func newLocalBench(cfg config) *localBench {
	b := &localBench{cfg: cfg, rng: rand.New(rand.NewSource(int64(mix(cfg.seed, 0))))}
	maxN := localSizes[len(localSizes)-1]
	for si, n := range localSizes {
		for ci := range localCells {
			xs := localSpec(cfg.seed, si, ci).Generate()
			b.sets = append(b.sets, localSet{xs: xs, or: newOracle(xs)})
			// Collect generation garbage now, so the peak RSS is the
			// input pool and the run, not 32 MiB temporaries.
			runtime.GC()
		}
		for i := 0; i < maxN/n*localCombos; i++ {
			combo := i % localCombos
			b.epoch = append(b.epoch, localOp{set: si*len(localCells) + combo%len(localCells), tol: combo / len(localCells)})
		}
		b.blockEnds = append(b.blockEnds, len(b.epoch))
	}
	return b
}

// localSpec is the input set of size localSizes[si] and cell localCells[ci].
func localSpec(seed uint64, si, ci int) gen.Spec {
	c := localCells[ci]
	return gen.Spec{N: localSizes[si], Cond: c.k, DynRange: c.dr, Seed: mix(seed, 1+si*len(localCells)+ci)}
}

// setup builds one Runtime per tolerance class and warms each on every
// input set, so decision caches are filled and pages touched.
func (b *localBench) setup() ([]*repro.Runtime, error) {
	rts := make([]*repro.Runtime, len(localTols))
	for i, tol := range localTols {
		rts[i] = repro.New(tol, repro.WithDecisionCache(0))
		for _, s := range b.sets {
			rts[i].Sum(s.xs)
		}
	}
	return rts, nil
}

// shuffle reorders the ops within each size's block of the epoch. The
// blocks run in size order, so the small sets are served from warm
// caches: their latency shows per-call overhead, not misses left behind
// by a 32 MiB input (which on a shared host vary with the neighbours).
func (b *localBench) shuffle() {
	lo := 0
	for _, hi := range b.blockEnds {
		blk := b.epoch[lo:hi]
		b.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		lo = hi
	}
}

// record checks one answer and counts it.
func (b *localBench) record(st *phase, op localOp, v float64, alg sum.Algorithm, d int64) {
	s := &b.sets[op.set]
	v = b.cfg.plant(v, b.opIndex)
	b.opIndex++
	st.ops++
	st.elems += int64(len(s.xs))
	st.opNs += d
	if !s.or.check(v, localTols[op.tol] == 0 || alg == sum.BinnedAlg) {
		st.failed++
	}
}

// untracedEpoch runs one shuffled epoch through repro.Runtime.Sum and
// returns one phase per size block, each timed on its own.
func (b *localBench) untracedEpoch(rts []*repro.Runtime) []phase {
	b.shuffle()
	blocks := make([]phase, len(b.blockEnds))
	lo := 0
	for i, hi := range b.blockEnds {
		w := &blocks[i]
		w.lat = make([]int64, 0, hi-lo)
		start := now()
		for _, op := range b.epoch[lo:hi] {
			t0 := now()
			v, rep := rts[op.tol].Sum(b.sets[op.set].xs)
			d := now() - t0
			w.lat = append(w.lat, d)
			b.record(w, op, v, rep.Algorithm, d)
		}
		w.wall = now() - start
		lo = hi
	}
	return blocks
}

// fastestEpoch assembles one epoch from the fastest instance of each
// size block; blocks holds a run's epochs one after another.
func (b *localBench) fastestEpoch(blocks []phase) phase {
	nb := len(b.blockEnds)
	var e phase
	for i := 0; i < nb; i++ {
		best := blocks[i]
		for j := i + nb; j < len(blocks); j += nb {
			if blocks[j].wall < best.wall {
				best = blocks[j]
			}
		}
		e.ops += best.ops
		e.elems += best.elems
		e.wall += best.wall
		e.lat = append(e.lat, best.lat...)
	}
	return e
}

// Span names of the traced sum-local run.
const (
	lsOp = iota
	lsProfile
	lsDecide
	lsSpec
	lsFold
	lsFinalize
	lsOther
)

// localTrace holds the traced run's counters beside its spans.
type localTrace struct {
	tr                           *tracer
	profileExactNs               int64
	specHits, escalations        int64
	foldElems, otherElems, elems int64
	// The profile pass and BN fold on the largest inputs alone.
	bigProfileNs, bigFoldNs, bigElems, bigFoldElems int64
}

// tracedEpoch runs one epoch through the calls core.Runtime.Sum
// composes (selector.SelectAndSum), in the same order, with a span
// around each: the fused profile pass, the cached decision, the
// speculative answer, and on escalation the BN fold and finalize or
// another rung's fold.
func (b *localBench) tracedEpoch(rts []*repro.Runtime, st *phase, lt *localTrace) error {
	b.shuffle()
	tr := lt.tr
	for _, op := range b.epoch {
		xs := b.sets[op.set].xs
		sel := rts[op.tol].Selector()
		tr.begin(lsOp)
		tr.begin(lsProfile)
		fp := selector.FusedProfileSum(xs)
		pd := tr.end()
		if fp.Profile.NonFinite {
			return fmt.Errorf("set %d profiled as non-finite", op.set)
		}
		tr.begin(lsDecide)
		dec := sel.Decide(fp.Profile)
		tr.end()
		tr.begin(lsSpec)
		v, ok := fp.SpecSum(dec.Alg)
		tr.end()
		switch {
		case ok:
			lt.specHits++
		case dec.Alg == sum.BinnedAlg:
			tr.begin(lsFold)
			var acc binned.State
			acc.AddSlice(xs)
			fd := tr.end()
			tr.begin(lsFinalize)
			v = acc.Finalize()
			tr.end()
			lt.foldElems += int64(len(xs))
			if len(xs) == localSizes[len(localSizes)-1] {
				lt.bigFoldNs += fd
				lt.bigFoldElems += int64(len(xs))
			}
		case dec.Alg == sum.PreroundedAlg:
			tr.begin(lsOther)
			v = sum.PreroundedWith(dec.PR, xs)
			tr.end()
			lt.otherElems += int64(len(xs))
		default:
			tr.begin(lsOther)
			v = dec.Alg.Sum(xs)
			tr.end()
			lt.otherElems += int64(len(xs))
		}
		d := tr.end()
		if !ok {
			lt.escalations++
		}
		if localTols[op.tol] == 0 {
			lt.profileExactNs += pd
		}
		lt.elems += int64(len(xs))
		if len(xs) == localSizes[len(localSizes)-1] {
			lt.bigProfileNs += pd
			lt.bigElems += int64(len(xs))
		}
		b.record(st, op, v, dec.Alg, d)
	}
	return nil
}

func cacheTotals(rts []*repro.Runtime) (hits, lookups int64) {
	for _, rt := range rts {
		if cs, ok := rt.CacheStats(); ok {
			hits += cs.Hits
			lookups += cs.Hits + cs.Misses
		}
	}
	return hits, lookups
}

func runLocal(cfg config) (report, error) {
	b := newLocalBench(cfg)
	rts, setupS, err := timedSetups(b.setup, func([]*repro.Runtime) {})
	if err != nil {
		return report{}, err
	}
	var rep report
	rep.set("setup_s", setupS)
	if !cfg.trace {
		// Each size block of each epoch is a window of its own (0.1-0.5 s,
		// the same work every epoch); the figures come from the epoch
		// assembled from every block's fastest instance.
		var blocks []phase
		a0 := totalAlloc()
		deadline := now() + int64(cfg.seconds*1e9)
		for len(blocks) == 0 || now() < deadline {
			blocks = append(blocks, b.untracedEpoch(rts)...)
		}
		rep.setAlloc(totalAlloc()-a0, blocks)
		rep.attempted, rep.failed = sumPhases(blocks)
		rep.setWindows([]phase{b.fastestEpoch(blocks)})
		rep.set("windows", float64(len(blocks)))
		return rep, nil
	}

	// Traced run: untraced and traced epochs alternate, so both run the
	// same op multiset under the same host conditions.
	lt := &localTrace{tr: newTracer("op", "selector.profile", "selector.decide", "selector.spec",
		"binned.fold", "binned.finalize", "sum.fold_other")}
	var plain, traced phase
	var hits, lookups int64
	deadline := now() + int64(cfg.seconds*1e9)
	epochs := 0
	for epochs == 0 || now() < deadline {
		for _, w := range b.untracedEpoch(rts) {
			plain.ops += w.ops
			plain.failed += w.failed
			plain.opNs += w.opNs
		}
		h0, l0 := cacheTotals(rts)
		if err := b.tracedEpoch(rts, &traced, lt); err != nil {
			return report{}, err
		}
		h1, l1 := cacheTotals(rts)
		hits, lookups = hits+h1-h0, lookups+l1-l0
		epochs++
	}
	tr := lt.tr
	tr.write(cfg.traceOut)
	rep.attempted = plain.ops + traced.ops
	rep.failed = plain.failed + traced.failed
	layers := []int{lsProfile, lsDecide, lsSpec, lsFold, lsFinalize, lsOther}
	var layerNs int64
	for _, l := range layers {
		layerNs += tr.self[l]
	}
	opNs := float64(tr.total[lsOp])
	untracedPerOp := float64(plain.opNs) / float64(plain.ops)
	rep.set("selector.profile.ns_per_elem", ratio(float64(tr.total[lsProfile]), float64(lt.elems)))
	rep.set("selector.profile.gbps_computed", ratio(8*float64(lt.elems), float64(tr.total[lsProfile])))
	rep.set("selector.profile.share", ratio(float64(tr.total[lsProfile]), opNs))
	rep.set("selector.profile.on_exact_share", ratio(float64(lt.profileExactNs), float64(tr.total[lsProfile])))
	rep.set("selector.decide.ns_per_call", tr.perCall(lsDecide))
	rep.set("selector.cache.hit_ratio", ratio(float64(hits), float64(lookups)))
	rep.set("selector.spec.hit_ratio", ratio(float64(lt.specHits), float64(traced.ops)))
	rep.set("sum.escalate_ratio", ratio(float64(lt.escalations), float64(traced.ops)))
	rep.set("binned.fold.ns_per_elem", ratio(float64(tr.total[lsFold]), float64(lt.foldElems)))
	rep.set("sum.fold_other.ns_per_elem", ratio(float64(tr.total[lsOther]), float64(lt.otherElems)))
	rep.set("binned.finalize.ns_per_call", tr.perCall(lsFinalize))
	rep.set("core.residual.ns_per_op", untracedPerOp-float64(layerNs)/float64(traced.ops))
	rep.set("trace.coverage", tr.coverage(lsOp, layers...))
	rep.set("trace.overhead_ratio", ratio(opNs/float64(traced.ops), untracedPerOp))
	rep.set("selector.profile.ns_per_elem.n2e22", ratio(float64(lt.bigProfileNs), float64(lt.bigElems)))
	rep.set("binned.fold.ns_per_elem.n2e22", ratio(float64(lt.bigFoldNs), float64(lt.bigFoldElems)))
	rep.set("epochs", float64(epochs))
	return rep, nil
}
