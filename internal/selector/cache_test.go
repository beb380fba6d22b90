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
		s.Cache = NewDecisionCache(CacheConfig{})
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
	s.Cache = NewDecisionCache(CacheConfig{})
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
	loose.Cache = NewDecisionCache(CacheConfig{})
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
	s1.Cache = NewDecisionCache(CacheConfig{})
	d1a, d1b := s1.Decide(a), s1.Decide(b)
	s2 := New(req.Tolerance)
	s2.Cache = NewDecisionCache(CacheConfig{})
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
			s.Cache = NewDecisionCache(CacheConfig{})
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

// TestCacheLRUEviction: capacity bounds the table and evicted buckets
// are recomputed (identically) on return.
func TestCacheLRUEviction(t *testing.T) {
	s := New(1e-9)
	s.Cache = NewDecisionCache(CacheConfig{Capacity: 2})
	profiles := []Profile{
		{N: 10, HasNonzero: true, Pos: 10, SumAbs: CSum{S: 1}, Sum: CSum{S: 1}},
		{N: 10000, HasNonzero: true, Pos: 10000, SumAbs: CSum{S: 1}, Sum: CSum{S: 1e-4}},
		{N: 10, HasNonzero: true, MaxExp: 0, MinExp: -30, Pos: 10,
			SumAbs: CSum{S: 1}, Sum: CSum{S: 1e-9}},
	}
	first := s.Decide(profiles[0])
	s.Decide(profiles[1])
	s.Decide(profiles[2]) // evicts profiles[0]'s bucket
	if st := s.Cache.Stats(); st.Entries != 2 || st.Misses != 3 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	again := s.Decide(profiles[0]) // miss again, same decision
	st := s.Cache.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Errorf("evicted bucket was not recomputed: %+v", st)
	}
	if first != again {
		t.Errorf("recomputed decision differs: %+v vs %+v", first, again)
	}
	// Recency: re-inserting profiles[0] evicted the then-LRU
	// profiles[1]; profiles[2] (more recent) must have been retained.
	s.Decide(profiles[2])
	if st := s.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("expected a hit on the retained bucket: %+v", st)
	}
}

// TestCacheNonFiniteBypass: poisoned profiles never touch the cache.
func TestCacheNonFiniteBypass(t *testing.T) {
	s := New(1e-9)
	s.Cache = NewDecisionCache(CacheConfig{})
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
	s.Cache = NewDecisionCache(CacheConfig{})
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
	st.Cache = NewDecisionCache(CacheConfig{})
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
	s.Cache = NewDecisionCache(CacheConfig{Capacity: 64})
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
			cached.Cache = NewDecisionCache(CacheConfig{})
			v1, sel1 := cached.SelectAndSum(xs)
			v2, sel2 := cached.SelectAndSum(xs) // hit path
			if fbits(v1) != fbits(v2) || sel1.Alg != sel2.Alg {
				t.Errorf("%s tol=%g: hit changed the result: %x/%v vs %x/%v",
					name, tol, fbits(v1), sel1.Alg, fbits(v2), sel2.Alg)
			}
			// The cached selection, run uncached through a Static policy,
			// reproduces the same bits: the cache influences selection
			// only, never execution.
			if sel1.Alg != sum.PreroundedAlg && !sel1.NonFinite {
				plain := New(tol)
				plain.Policy = Static{Alg: sel1.Alg}
				v3, _ := plain.SelectAndSum(xs)
				if fbits(v1) != fbits(v3) {
					t.Errorf("%s tol=%g: cached bits %x != forced-%v bits %x",
						name, tol, fbits(v1), sel1.Alg, fbits(v3))
				}
			}
		}
	}
}
