package selector

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/sum"
)

// TestCacheHitMissSameDecision: a hit must return the exact Decision
// the miss computed — memoization is invisible to the caller.
func TestCacheHitMissSameDecision(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1e5, DynRange: 16, Seed: 40}.Generate()
	p := ProfileOf(xs)
	for _, tol := range []float64{1e-6, 1e-12, 0} {
		s := New(tol)
		s.Cache = NewDecisionCache(0)
		d1 := s.Decide(p)
		d2 := s.Decide(p)
		if d1 != d2 {
			t.Errorf("tol=%g: miss %+v != hit %+v", tol, d1, d2)
		}
		st := s.Cache.Stats()
		if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
			t.Errorf("tol=%g: stats %+v, want 1 hit / 1 miss / 1 entry", tol, st)
		}
		if st.HitRate() != 0.5 {
			t.Errorf("tol=%g: hit rate %g", tol, st.HitRate())
		}
	}
}

// TestCacheHitMissPinNewRanks pins memoization under the re-ranked
// cost ladder (BN directly after the plain loops): a zero-tolerance
// request must decide the cheapest reproducible rung — BN, not PR —
// and the hit must return that exact Decision. A loose request keeps
// the plain fast path: cheapening the reproducible rung must never
// steal selections ST already satisfies.
func TestCacheHitMissPinNewRanks(t *testing.T) {
	xs := gen.Spec{N: 1 << 14, Cond: 1e8, DynRange: 24, Seed: 46}.Generate()
	p := ProfileOf(xs)
	s := New(0)
	s.Cache = NewDecisionCache(0)
	miss := s.Decide(p)
	hit := s.Decide(p)
	if miss != hit {
		t.Fatalf("hit decision differs from miss: %+v vs %+v", hit, miss)
	}
	if miss.Alg != sum.BinnedAlg {
		t.Errorf("tol=0 decided %v, want BN (cheapest reproducible rung)", miss.Alg)
	}
	if st := s.Cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", st)
	}
	loose := New(1e-6)
	loose.Cache = NewDecisionCache(0)
	easy := ProfileOf(gen.Spec{N: 4096, Cond: 1, DynRange: 4, Seed: 47}.Generate())
	d1 := loose.Decide(easy)
	d2 := loose.Decide(easy)
	if d1 != d2 {
		t.Fatalf("loose hit differs from miss: %+v vs %+v", d2, d1)
	}
	if d1.Alg.CostRank() > sum.BinnedAlg.CostRank() {
		t.Errorf("easy cell escalated past BN: %v", d1.Alg)
	}
}

// TestCacheOrderIndependence: decisions are pure functions of the
// bucket, never "whichever profile arrived first" — two profiles
// sharing a bucket get the same decision regardless of which one warmed
// the cache.
func TestCacheOrderIndependence(t *testing.T) {
	// Same bucket: k differs by well under a quarter-decade, same n and
	// dr magnitudes.
	a := ProfileOf(gen.Spec{N: 4000, Cond: 1.1e5, DynRange: 16, Seed: 41}.Generate())
	b := ProfileOf(gen.Spec{N: 4001, Cond: 1.3e5, DynRange: 16, Seed: 42}.Generate())
	req := Requirement{Tolerance: 1e-12}
	if quantize(a, req) != quantize(b, req) {
		t.Skip("fixture profiles no longer share a bucket")
	}
	s1 := New(req.Tolerance)
	s1.Cache = NewDecisionCache(0)
	d1a, d1b := s1.Decide(a), s1.Decide(b)
	s2 := New(req.Tolerance)
	s2.Cache = NewDecisionCache(0)
	d2b, d2a := s2.Decide(b), s2.Decide(a)
	if d1a != d2a || d1b != d2b || d1a != d1b {
		t.Errorf("order-dependent decisions: %+v/%+v vs %+v/%+v", d1a, d1b, d2a, d2b)
	}
}

// TestCacheConservatism: under the monotone analytic policy the cached
// decision (computed at the bucket's upper edges) never picks a cheaper
// algorithm than the exact-profile policy call would.
func TestCacheConservatism(t *testing.T) {
	conds := []float64{1, 10, 1e3, 1e5, 1e8, 1e12, math.Inf(1)}
	tols := []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0}
	for i, k := range conds {
		xs := gen.Spec{N: 3000 + 17*i, Cond: k, DynRange: 8 * (i%4 + 1),
			Seed: uint64(43 + i)}.Generate()
		p := ProfileOf(xs)
		for _, tol := range tols {
			s := New(tol)
			s.Cache = NewDecisionCache(0)
			cached := s.Decide(p)
			direct := decide(s.Policy, p, s.Req)
			if cached.Alg.CostRank() < direct.Alg.CostRank() {
				t.Errorf("k=%g tol=%g: cache cheapened %v to %v",
					k, tol, direct.Alg, cached.Alg)
			}
		}
	}
}

// TestCacheQuantizeBuckets sanity-checks the key axes: tolerance exact,
// condition in quarter-decades with a saturation sentinel, n by
// power-of-two magnitude, dynamic range in 4-octave steps.
func TestCacheQuantizeBuckets(t *testing.T) {
	base := Profile{N: 1000, HasNonzero: true, MaxExp: 0, MinExp: -10,
		Pos: 1000, SumAbs: CSum{S: 1}, Sum: CSum{S: 1e-3}}
	req := Requirement{Tolerance: 1e-9}
	k0 := quantize(base, req)
	if k0.nq != 10 || k0.drq != 3 || k0.kq != 12 {
		t.Errorf("base key %+v", k0)
	}
	inf := base
	inf.Sum = CSum{}
	if q := quantize(inf, req); q.kq != kInfBucket {
		t.Errorf("cancelled profile key %+v, want sentinel", q)
	}
	nan := base
	nan.Sum, nan.SumAbs = CSum{S: math.Inf(1)}, CSum{S: math.Inf(1)}
	if q := quantize(nan, req); q.kq != kInfBucket {
		t.Errorf("NaN-cond profile key %+v, want sentinel", q)
	}
	otherTol := quantize(base, Requirement{Tolerance: 1e-10})
	if otherTol == k0 {
		t.Error("tolerance not part of the key")
	}
	// Representative stays in (or conservatively above) its bucket and
	// is finite-safe for the tuner even at extreme dynamic range.
	for _, key := range []cacheKey{k0, quantize(inf, req),
		{tol: k0.tol, kq: 68, nq: 62, drq: 600}} {
		rp, rreq := representative(key)
		if rreq.Tolerance != req.Tolerance {
			t.Errorf("representative lost the tolerance")
		}
		if rp.N < 1 || !rp.HasNonzero {
			t.Errorf("degenerate representative %+v", rp)
		}
		cfg := TunePR(rp, rreq) // must not overflow or panic
		if cfg.F < 1 || cfg.F > 8 {
			t.Errorf("representative tuned to invalid F=%d", cfg.F)
		}
	}
}

// TestCacheBoundedByCapacity streams 3× capacity distinct buckets and
// then repeats them through caches of capacity 1, 2 and 64, each
// bucket asked for with a profile away from its representative
// (inBucket). Entries never exceeds the capacity, read after every
// call and from a concurrent goroutine; every decision — a miss, a
// hit, or one recomputed after the full map was cleared — equals the
// uncached decision on the bucket's representative; and a bucket asked
// for again right after its insert is a hit.
func TestCacheBoundedByCapacity(t *testing.T) {
	const tol = 1e-9
	var keys []cacheKey
	for nq := int16(2); nq < 50; nq++ {
		for _, kq := range []int16{0, 20, 40, kInfBucket} {
			keys = append(keys, cacheKey{tol: math.Float64bits(tol), kq: kq, nq: nq, drq: nq % 9})
		}
	}
	for _, capacity := range []int{1, 2, 64} {
		stream := keys[:3*capacity]
		s := New(tol)
		s.Cache = NewDecisionCache(capacity)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := s.Cache.Stats().Entries; n > int64(capacity) {
					t.Errorf("capacity %d: concurrent reader saw %d entries", capacity, n)
					return
				}
			}
		}()
		check := func(key cacheKey, what string) {
			rp, req := representative(key)
			p := inBucket(key)
			if quantize(p, req) != key {
				t.Fatalf("profile %+v of %+v quantizes to %+v", p, key, quantize(p, req))
			}
			if got, want := s.Decide(p), decide(s.Policy, rp, req); got != want {
				t.Errorf("capacity %d %s %+v: decision %+v, uncached %+v", capacity, what, key, got, want)
			}
			if n := s.Cache.Stats().Entries; n > int64(capacity) {
				t.Errorf("capacity %d %s %+v: %d entries", capacity, what, key, n)
			}
		}
		for _, key := range stream {
			check(key, "first")
			hits := s.Cache.Stats().Hits
			check(key, "again")
			if st := s.Cache.Stats(); st.Hits != hits+1 {
				t.Errorf("capacity %d %+v: asking again right after the insert missed: %+v", capacity, key, st)
			}
		}
		for _, key := range stream {
			check(key, "repeat")
		}
		close(stop)
		wg.Wait()
		if st := s.Cache.Stats(); st.Hits+st.Misses != int64(3*len(stream)) {
			t.Errorf("capacity %d: %d lookups counted, want %d", capacity, st.Hits+st.Misses, 3*len(stream))
		}
	}
}

// inBucket is a profile of key's bucket away from its representative:
// n at the bucket's lower edge, the condition number 1.5× below the
// representative's and the dynamic range 3 octaves narrower.
func inBucket(key cacheKey) Profile {
	p, _ := representative(key)
	p.N = 1 << (key.nq - 1)
	p.Pos = p.N
	if key.kq != kInfBucket {
		p.Sum.S *= 1.5
	}
	if key.drq > 0 {
		p.MinExp += 3
	}
	return p
}

// TestCacheNonFiniteBypass: poisoned profiles never touch the cache.
func TestCacheNonFiniteBypass(t *testing.T) {
	s := New(1e-9)
	s.Cache = NewDecisionCache(0)
	var p Profile
	p = p.Add(1)
	p = p.Add(math.NaN())
	d := s.Decide(p)
	if !d.Alg.Valid() {
		t.Errorf("poisoned decision invalid: %+v", d)
	}
	if st := s.Cache.Stats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Errorf("poisoned profile touched the cache: %+v", st)
	}
}

// TestCacheHitAllocs: the steady-state hit path is allocation-free.
func TestCacheHitAllocs(t *testing.T) {
	xs := gen.Spec{N: 4096, Cond: 1e5, DynRange: 16, Seed: 44}.Generate()
	p := ProfileOf(xs)
	s := New(1e-12)
	s.Cache = NewDecisionCache(0)
	s.Decide(p) // warm
	var sink Decision
	if n := testing.AllocsPerRun(100, func() {
		sink = s.Decide(p)
	}); n != 0 {
		t.Errorf("cache hit allocates %v per run", n)
	}
	_ = sink
	// And end-to-end: warm fused serving with a cache on the fast path.
	easy := gen.Spec{N: 4096, Cond: 1, DynRange: 4, Seed: 45}.Generate()
	st := New(1e-9)
	st.Cache = NewDecisionCache(0)
	st.SelectAndSum(easy) // warm
	var v float64
	if n := testing.AllocsPerRun(100, func() {
		v, _ = st.SelectAndSum(easy)
	}); n != 0 {
		t.Errorf("cached fused serving allocates %v per run", n)
	}
	_ = v
}

// TestCacheConcurrent hammers one cache from many goroutines
// (the race detector pass covers the locking) and checks decisions stay
// identical to the single-threaded answers.
func TestCacheConcurrent(t *testing.T) {
	profiles := make([]Profile, 16)
	want := make([]Decision, len(profiles))
	ref := New(1e-12)
	for i := range profiles {
		profiles[i] = ProfileOf(gen.Spec{N: 500 + 300*i,
			Cond: math.Pow(10, float64(i%9)), DynRange: 4 * (i % 6),
			Seed: uint64(50 + i)}.Generate())
		want[i] = ref.Decide(profiles[i])
	}
	s := New(1e-12)
	s.Cache = NewDecisionCache(64)
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % len(profiles)
				d := s.Decide(profiles[i])
				// Cached decisions may be conservatively stronger than the
				// direct ones, but must at least be valid and never cheaper.
				if !d.Alg.Valid() || d.Alg.CostRank() < want[i].Alg.CostRank() {
					select {
					case errc <- d.Alg.String():
					default:
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Errorf("concurrent decision invalid or cheapened: %s", e)
	}
	if st := s.Cache.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("no cache traffic recorded: %+v", st)
	}
}

// TestCachedSumBitsUnaffected: attaching a cache must not change the
// bits a given selection produces — only potentially which algorithm is
// selected — and repeated cached serving is self-consistent.
func TestCachedSumBitsUnaffected(t *testing.T) {
	for name, xs := range fusedCases() {
		for _, tol := range []float64{1e-6, 1e-12, 0} {
			cached := New(tol)
			cached.Cache = NewDecisionCache(0)
			v1, sel1 := cached.SelectAndSum(xs)
			v2, sel2 := cached.SelectAndSum(xs) // hit path
			if fbits(v1) != fbits(v2) || sel1.Algorithm != sel2.Algorithm {
				t.Errorf("%s tol=%g: hit changed the result: %x/%v vs %x/%v",
					name, tol, fbits(v1), sel1.Algorithm, fbits(v2), sel2.Algorithm)
			}
			// The cached selection, run uncached through a Static policy,
			// reproduces the same bits: the cache influences selection
			// only, never execution.
			if sel1.Algorithm != sum.PreroundedAlg && !sel1.NonFinite {
				plain := New(tol)
				plain.Policy = Static{Alg: sel1.Algorithm}
				v3, _ := plain.SelectAndSum(xs)
				if fbits(v1) != fbits(v3) {
					t.Errorf("%s tol=%g: cached bits %x != forced-%v bits %x",
						name, tol, fbits(v1), sel1.Algorithm, fbits(v3))
				}
			}
		}
	}
}
