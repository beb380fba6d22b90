package selector

import (
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestCacheConcurrentDecideStats hammers Decide and Stats from many
// goroutines at once. Under -race this proves the stats counters are
// safely readable while decisions are being served (they are atomics;
// Stats never takes the cache lock); in every mode it pins the exact
// accounting contract: Hits+Misses equals the number of Decide calls,
// every goroutine sees the identical Decision per profile, and Entries
// equals the number of distinct buckets touched.
func TestCacheConcurrentDecideStats(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
	)
	// A handful of profiles spanning distinct buckets (different n
	// decades and condition regimes), well under capacity — so after
	// the serial warmup every concurrent Decide is a hit.
	var profiles []Profile
	for i, spec := range []gen.Spec{
		{N: 512, Cond: 1e3, DynRange: 8, Seed: 1},
		{N: 4096, Cond: 1e8, DynRange: 16, Seed: 2},
		{N: 32768, Cond: 1e12, DynRange: 24, Seed: 3},
		{N: 8192, Cond: 1e15, DynRange: 40, Seed: 4},
	} {
		p := ProfileOf(spec.Generate())
		if p.NonFinite {
			t.Fatalf("profile %d poisoned; specs must stay finite", i)
		}
		profiles = append(profiles, p)
	}

	s := New(1e-12)
	s.Cache = NewDecisionCache(256)
	want := make([]Decision, len(profiles))
	for i, p := range profiles {
		want[i] = s.Decide(p) // serial warmup: one miss per bucket
	}
	base := s.Cache.Stats()
	if base.Misses != int64(len(profiles)) || base.Entries != int64(len(profiles)) {
		t.Fatalf("warmup stats %+v, want %d misses/entries", base, len(profiles))
	}

	var decideWG, statsWG sync.WaitGroup
	stop := make(chan struct{})
	// Stats hammer: concurrent snapshots must stay monotone in
	// Hits+Misses, and Entries must hold steady (the key set is fixed
	// and under capacity).
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		var lastTotal int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Cache.Stats()
			total := st.Hits + st.Misses
			if total < lastTotal {
				t.Errorf("Stats went backwards: %d after %d", total, lastTotal)
				return
			}
			lastTotal = total
			if st.Entries != int64(len(profiles)) {
				t.Errorf("Entries drifted to %d mid-hammer, want %d", st.Entries, len(profiles))
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		decideWG.Add(1)
		go func(g int) {
			defer decideWG.Done()
			for i := 0; i < iters; i++ {
				pi := (g + i) % len(profiles)
				if d := s.Decide(profiles[pi]); d != want[pi] {
					t.Errorf("goroutine %d: decision diverged under concurrency", g)
					return
				}
			}
		}(g)
	}
	decideWG.Wait() // Stats ran concurrently the whole time
	close(stop)
	statsWG.Wait()

	st := s.Cache.Stats()
	wantCalls := base.Hits + base.Misses + goroutines*iters
	if st.Hits+st.Misses != wantCalls {
		t.Fatalf("hits %d + misses %d = %d, want exactly %d Decide calls",
			st.Hits, st.Misses, st.Hits+st.Misses, wantCalls)
	}
	if st.Misses != base.Misses {
		t.Fatalf("misses grew to %d under a fully warmed cache, want %d", st.Misses, base.Misses)
	}
	if st.Entries != int64(len(profiles)) {
		t.Fatalf("entries %d, want %d", st.Entries, len(profiles))
	}
}
