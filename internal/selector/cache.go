package selector

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DecisionCache memoizes selection decisions keyed by a quantized
// profile, so steady-state traffic whose data keeps the same rough
// shape (n, condition number, dynamic range) skips policy evaluation —
// HeuristicPolicy's log/sqrt chain, the bound arithmetic of a
// ProbabilisticPolicy, or the table scan of a CalibratedPolicy —
// entirely.
//
// Soundness rests on one rule: a cached decision is NEVER the answer
// the policy gave "some earlier profile that happened to land in this
// bucket". On a miss the cache evaluates the policy on the bucket's
// canonical representative — a synthetic profile pinned to the bucket's
// conservative (upper) edges: largest n, largest condition number,
// widest dynamic range, worst maxAbs/sumAbs ratio the bucket admits.
// The memoized decision is therefore a pure function of the bucket, so
// a hit and a miss return identical decisions and results are
// independent of request order, concurrency, and cache capacity.
// Under the monotone HeuristicPolicy the representative's decision is
// also conservative for every profile in the bucket: it never selects
// a cheaper algorithm than the exact profile would.
//
// What is quantized (see quantize): tolerance exactly (its bits are the
// key), condition number in quarter-decades of clampLog10K (with one
// sentinel bucket for k ≥ 10^17/Inf/NaN), n in powers of two, dynamic
// range in 4-octave steps. What is NOT affected: execution bits. The
// decision (algorithm + PR configuration) fully determines the
// arithmetic; the cache only changes how the decision is obtained, so
// a given Selector configuration produces identical bits with a cold
// cache, a warm cache, or a thrashing one. Attaching a cache is itself
// a configuration change, though: quantization may round a decision up
// to a more accurate algorithm than the exact-profile policy call.
//
// Poisoned (NonFinite) profiles never reach the cache (Selector.Decide
// bypasses it) — they would alias the ill-conditioned bucket while
// requiring different handling.
//
// The cache is safe for concurrent use: one map under one mutex. A hit
// costs one map probe under the lock, with zero heap allocations. A
// miss that finds the map full clears it before inserting: since a
// decision is a pure function of its bucket, eviction order changes
// hit counts but never a decision or a bit. The counters are atomics
// so Stats reads them without touching mu — observability never
// contends with decision traffic.
type DecisionCache struct {
	mu       sync.Mutex
	m        map[cacheKey]Decision
	capacity int

	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64
}

// CacheStats is an observability snapshot of a DecisionCache.
type CacheStats struct {
	Hits, Misses int64
	// Entries is the number of decisions currently memoized.
	Entries int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any traffic.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

// cacheKey identifies one quantization bucket. All fields are
// comparable scalars, so the key hashes and compares without
// allocating.
type cacheKey struct {
	// tol is math.Float64bits of the requirement's tolerance — exact,
	// never bucketed: two requirements are the same key only when they
	// are the same tolerance.
	tol uint64
	// kq is the condition bucket: ceil(4·clampLog10K(k)) in 0..68, or
	// kInfBucket for k ≥ 10^17, +Inf, or NaN.
	kq int16
	// nq is the size bucket: bits.Len64(n), i.e. n's power-of-two
	// magnitude.
	nq int16
	// drq is the dynamic-range bucket: ceil(dr/4).
	drq int16
}

// kInfBucket is the saturated condition bucket (clampLog10K == 17 edge
// and beyond, including NaN estimates from an overflowed Σ|x|).
const kInfBucket int16 = 69

// condBucket maps a condition number onto its quarter-decade bucket.
// quantize and representative must share this exact rounding: the
// conservative-representative guarantee is stated in terms of the
// bucket this function computes.
func condBucket(k float64) int16 {
	if math.IsNaN(k) || k > 1e17 {
		return kInfBucket
	}
	return int16(math.Ceil(clampLog10K(k) * 4))
}

// quantize maps a (profile, requirement) onto its bucket.
func quantize(p Profile, req Requirement) cacheKey {
	return cacheKey{
		tol: math.Float64bits(req.Tolerance),
		kq:  condBucket(p.Cond()),
		nq:  int16(bits.Len64(uint64(p.N))),
		drq: int16((p.DynRange() + 3) / 4),
	}
}

// representative synthesizes the bucket's canonical profile, pinned to
// the conservative edge of every quantized axis:
//
//   - n: the bucket's upper edge 2^nq - 1 (predictions grow with n;
//     the nq = 63 bucket pins MaxInt64, the largest count a profile
//     can hold);
//   - k: Sum = 1/k' against SumAbs = 1 with k' at the bucket's upper
//     edge 10^(kq/4), then nudged ulp-by-ulp to the largest computed
//     condition number the bucket admits — the double rounding in
//     1/(1/k') and Log10's own rounding otherwise leave the
//     representative's Cond tens of ulps below in-bucket profiles at
//     quarter-decade edges, quietly breaking conservatism right on the
//     boundary; the sentinel bucket uses Sum = 0, making Cond exactly
//     +Inf;
//   - dr: MaxExp = 0, MinExp = -4·drq (the widest range the bucket
//     admits), which also pins TunePR's maxAbs/sumAbs ratio at its
//     worst case 2 — real data in the bucket never has a larger ratio,
//     so the memoized PR configuration is at least as accurate as the
//     exact-profile tuning.
//
// Keeping the representative at unit scale (SumAbs = 1, MaxExp = 0)
// also keeps TunePR's ldexp arithmetic far from overflow for any
// representable dynamic range.
func representative(key cacheKey) (Profile, Requirement) {
	req := Requirement{Tolerance: math.Float64frombits(key.tol)}
	n := int64(1)
	switch {
	case key.nq >= 63:
		n = math.MaxInt64 // bits.Len64 of a count never exceeds 63
	case key.nq > 0:
		n = int64(1)<<key.nq - 1
	}
	p := Profile{
		N:          n,
		HasNonzero: true,
		MaxExp:     0,
		MinExp:     -4 * int(key.drq),
		Pos:        n,
		SumAbs:     CSum{S: 1},
	}
	if key.kq != kInfBucket {
		s := 1 / math.Pow(10, float64(key.kq)/4)
		// Walk |Sum| down to the bucket's computed-Cond supremum: the
		// largest 1/s that condBucket still maps into this bucket. The
		// loop terminates because shrinking s grows 1/s monotonically
		// toward +Inf (bucket kInfBucket); measured walks are under
		// fifty ulps.
		for {
			next := math.Nextafter(s, 0)
			if next == 0 || condBucket(1/next) > key.kq {
				break
			}
			s = next
		}
		p.Sum = CSum{S: s}
	}
	return p, req
}

// NewDecisionCache returns an empty cache that holds at most capacity
// decisions; capacity <= 0 selects 4096 (a few hundred KB; far more
// buckets than a single workload's profiles usually span).
func NewDecisionCache(capacity int) *DecisionCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &DecisionCache{m: make(map[cacheKey]Decision, capacity), capacity: capacity}
}

// decide returns the bucket's memoized decision, computing and
// inserting it on a miss (after clearing the map when it is full). The
// policy runs outside the lock; concurrent misses on one bucket may
// both evaluate it, but they evaluate the same pure function of the
// same representative, so the race is benign and the stored decision
// identical either way.
func (dc *DecisionCache) decide(pol Policy, p Profile, req Requirement) Decision {
	key := quantize(p, req)
	dc.mu.Lock()
	if d, ok := dc.m[key]; ok {
		dc.mu.Unlock()
		dc.hits.Add(1)
		return d
	}
	dc.mu.Unlock()
	dc.misses.Add(1)

	rp, rreq := representative(key)
	d := decide(pol, rp, rreq)

	dc.mu.Lock()
	if _, ok := dc.m[key]; !ok && len(dc.m) >= dc.capacity {
		clear(dc.m)
	}
	dc.m[key] = d
	dc.entries.Store(int64(len(dc.m)))
	dc.mu.Unlock()
	return d
}

// Stats snapshots the counters. They are atomics, so Stats never
// blocks (or is blocked by) concurrent decide traffic; the snapshot is
// per-counter consistent, not globally atomic, but Hits+Misses never
// undercounts completed decide calls.
func (dc *DecisionCache) Stats() CacheStats {
	return CacheStats{
		Hits:    dc.hits.Load(),
		Misses:  dc.misses.Load(),
		Entries: dc.entries.Load(),
	}
}
