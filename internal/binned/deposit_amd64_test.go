package binned

import "testing"

// testEngine names one group kernel depositGroupsFast can route to.
type testEngine struct {
	name         string
	avx2, avx512 bool
}

// hostEngines lists every group kernel this host can run, the portable
// one first.
func hostEngines() []testEngine {
	es := []testEngine{{name: "portable"}}
	if hasAVX2() {
		es = append(es, testEngine{name: "avx2", avx2: true})
		if hasAVX512() {
			es = append(es, testEngine{name: "avx512", avx2: true, avx512: true})
		}
	}
	return es
}

// install routes depositGroupsFast to e and returns the undo.
func (e testEngine) install() (restore func()) {
	old2, old512 := useAVX2, useAVX512
	useAVX2, useAVX512 = e.avx2, e.avx512
	return func() { useAVX2, useAVX512 = old2, old512 }
}

// TestCPUFeatureDetect sanity-checks the CPUID dance: the probes must
// be callable whatever the features, and AVX-512 is only ever routed
// to on top of AVX2.
func TestCPUFeatureDetect(t *testing.T) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID == 0 {
		t.Fatal("CPUID leaf 0 returned max leaf 0")
	}
	avx2, avx512 := hasAVX2(), hasAVX512()
	t.Logf("AVX2 %v, AVX-512F %v", avx2, avx512)
	if useAVX2 != avx2 || useAVX512 != (avx2 && avx512) {
		t.Fatalf("engine routing useAVX2=%v useAVX512=%v disagrees with the probes", useAVX2, useAVX512)
	}
}

// TestAVX512GroupContract pins the 8-wide kernel's own consumption
// rule, which depositGroupsFast relies on to hand the AVX2 kernel at
// most one 4-group: whole 8-groups only, stopping at the first group
// holding an ineligible element or when fewer than 8 remain.
func TestAVX512GroupContract(t *testing.T) {
	if !hasAVX2() || !hasAVX512() {
		t.Skip("no AVX-512F on this host")
	}
	s := 33 // window of 1..2^13
	consts := [3]float64{bigTab[s+pad], bigTab[s+pad-1], bigTab[s+pad-2]}
	efLo := int64(BinWidth*s) - (BinWidth + 51)
	efSpan := int64(BinWidth*s-20) - efLo
	for n := 0; n <= 24; n++ {
		for bad := -1; bad < n; bad++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			want := int64(n) &^ 7
			if bad >= 0 {
				xs[bad] = 1e300
				want = int64(bad) &^ 7
			}
			// A quad already holding partials: the kernel must carry
			// them in its low lanes.
			var q [16]float64
			for i := range q {
				q[i] = float64(i + 1)
			}
			qg := q
			if got := depositGroupsAVX512(xs, &consts, efLo, efSpan, &q); got != want {
				t.Fatalf("n=%d bad=%d: consumed %d, want %d", n, bad, got, want)
			}
			depositGroupsGo(xs[:want], &consts, efLo, efSpan, &qg)
			if q != qg {
				t.Fatalf("n=%d bad=%d: quad %v, portable %v", n, bad, q, qg)
			}
		}
	}
}
