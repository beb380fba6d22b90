package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// smokeSeconds keeps every run to one window or epoch.
const smokeSeconds = 0.3

// heldOutSeed is never used while the benchmark is tuned.
const heldOutSeed = 424242

// coverageMargin is the range trace.coverage must fall in: the layer
// spans must account for at least 90% of the traced op time.
var coverageMargin = [2]float64{0.90, 1.0}

// layersOf lists the per-layer metrics each workload's traced run emits.
var layersOf = map[string][]string{
	"sum-local": {"selector.profile.ns_per_elem", "selector.profile.gbps_computed",
		"selector.profile.share", "selector.profile.on_exact_share", "selector.decide.ns_per_call",
		"selector.cache.hit_ratio", "selector.spec.hit_ratio", "sum.escalate_ratio",
		"binned.fold.ns_per_elem", "sum.fold_other.ns_per_elem", "binned.finalize.ns_per_call",
		"core.residual.ns_per_op"},
	"serve-tcp": {"aggsrv.client.deposit_ns_per_elem", "aggsrv.client.deposit_state_us",
		"aggsrv.flush.rtt_us", "aggsrv.flush.idle_rtt_us", "aggsrv.server.apply_us",
		"aggsrv.snapshot.rtt_us", "wire.decode_binned_us", "binned.addslice.ns_per_elem",
		"aggsrv.server.acked_ratio", "aggsrv.wire.bytes_per_elem_computed"},
	"collective-sim": {"mpirt.world.spawn_us", "mpirt.local.ns_per_elem", "mpirt.local.share",
		"mpirt.global_us", "mpirt.global.share", "reduce.merges_per_op",
		"mpirt.bytes_per_op_computed", "mpirt.model.global_share"},
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func units(ms []benchMetric) map[string]string {
	m := map[string]string{}
	for _, x := range ms {
		m[x.Name] = x.Unit
	}
	return m
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// runWorkload runs one workload and renders its two output lines.
func runWorkload(t *testing.T, name string, cfg config) (fullReport, result) {
	t.Helper()
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.tsv")
	rep, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return render(name, cfg, rep)
}

// TestSmokeAllWorkloads runs every workload briefly, untraced and
// traced, and checks the printed metrics against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := loadBenchFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := keys(workloads); !slices.Equal(got, sortedStrings(names)) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, trace := range []bool{false, true} {
		want := units(bf.EndToEnd)
		if trace {
			want = units(bf.PerLayer)
		}
		for _, name := range names {
			full, res := runWorkload(t, name, config{seed: 1, seconds: smokeSeconds, trace: trace})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); !slices.Equal(got, keys(want)) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, trace, got, keys(want))
			}
			for m, v := range res.Metrics {
				if v.Unit != want[m] {
					t.Errorf("%s: %s unit %q, want %q", name, m, v.Unit, want[m])
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
					}
				}
				if full.Values["fail_frac"] != 0 {
					t.Errorf("%s: fail_frac %v on unmodified code", name, full.Values["fail_frac"])
				}
				continue
			}
			for _, m := range append(layersOf[name], "trace.coverage", "trace.overhead_ratio") {
				if _, ok := full.Values[m]; !ok {
					t.Errorf("%s: traced run did not emit %s", name, m)
				}
			}
			if c := full.Values["trace.coverage"]; c < coverageMargin[0] || c > coverageMargin[1] {
				t.Errorf("%s: trace.coverage %v outside %v", name, c, coverageMargin)
			}
		}
	}
}

func sortedStrings(s []string) []string {
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// TestPlantedWrongAnswerIsCaught corrupts answers before they are
// checked and expects every workload to count failures.
func TestPlantedWrongAnswerIsCaught(t *testing.T) {
	for name := range workloads {
		full, res := runWorkload(t, name, config{seed: 1, seconds: smokeSeconds, plantEvery: 3})
		if res.Correct || res.Failed == 0 || !(full.Values["fail_frac"] > 0) {
			t.Errorf("%s: planted errors not caught: correct=%v failed=%d fail_frac=%v",
				name, res.Correct, res.Failed, full.Values["fail_frac"])
		}
	}
}

// TestHeldOutSeed shows that another seed generates other inputs and
// that those inputs pass the same checks.
func TestHeldOutSeed(t *testing.T) {
	a, b := newServeInputs(1), newServeInputs(heldOutSeed)
	if slices.Equal(a.batches[0], b.batches[0]) {
		t.Error("serve-tcp: seeds 1 and held-out generate the same batch")
	}
	ca, cb := newCollBench(config{seed: 1}), newCollBench(config{seed: heldOutSeed})
	if slices.Equal(ca.sums[0][0], cb.sums[0][0]) || slices.Equal(ca.vecs[0][0], cb.vecs[0][0]) {
		t.Error("collective-sim: seeds 1 and held-out generate the same data")
	}
	if slices.Equal(localSpec(1, 0, 0).Generate(), localSpec(heldOutSeed, 0, 0).Generate()) {
		t.Error("sum-local: seeds 1 and held-out generate the same set")
	}
	for name := range workloads {
		_, res := runWorkload(t, name, config{seed: heldOutSeed, seconds: smokeSeconds})
		if !res.Correct {
			t.Errorf("%s: held-out seed failed %d of %d checks", name, res.Failed, res.Attempted)
		}
	}
}
