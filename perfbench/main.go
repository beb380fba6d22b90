// Command perfbench is the repository's benchmark: it drives the three
// serving paths — repro.Runtime.Sum on a slice (sum-local), the TCP
// aggregation server (serve-tcp) and the simulated mpirt collectives
// (collective-sim) — through their public entry points, checks every
// answer against an exact superaccumulator oracle, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as one JSON object on the last line of stdout.
//
//	perfbench --workload sum-local --seed 1 --seconds 10 --trace 0
//
// The line before it is a fuller report: the seed, the host record and
// the metrics the result line has no place for (fail_frac, snap_p50_us,
// alloc_bytes_per_op, sample counts). See README.md for the workloads,
// the layer→metric map and the first readings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// config is one benchmark run.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// traceOut is the file the traced run writes its retained spans to.
	traceOut string
	// plantEvery, when positive, corrupts every plantEvery-th answer
	// before it is checked; the benchmark's test uses it to show that
	// the checks catch a wrong answer.
	plantEvery int
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	// values holds every measured metric by name: the end-to-end ones
	// (untraced run) or the per-layer ones (traced run), plus extras
	// that only the report line carries.
	values map[string]float64
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports. They must match
// BENCHMARK.json's end_to_end list (the test checks this).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"elems_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, for all workloads;
// a metric of a layer the workload does not run reads 0. They must
// match BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	// sum-local
	{"selector.profile.ns_per_elem", "ns"},
	{"selector.profile.gbps_computed", "GB/s"},
	{"selector.profile.share", "ratio"},
	{"selector.profile.on_exact_share", "ratio"},
	{"selector.decide.ns_per_call", "ns"},
	{"selector.cache.hit_ratio", "ratio"},
	{"selector.spec.hit_ratio", "ratio"},
	{"sum.escalate_ratio", "ratio"},
	{"binned.fold.ns_per_elem", "ns"},
	{"sum.fold_other.ns_per_elem", "ns"},
	{"binned.finalize.ns_per_call", "ns"},
	{"core.residual.ns_per_op", "ns"},
	// serve-tcp
	{"aggsrv.client.deposit_ns_per_elem", "ns"},
	{"aggsrv.client.deposit_state_us", "us"},
	{"aggsrv.flush.rtt_us", "us"},
	{"aggsrv.flush.idle_rtt_us", "us"},
	{"aggsrv.server.apply_us", "us"},
	{"aggsrv.snapshot.rtt_us", "us"},
	{"wire.decode_binned_us", "us"},
	{"binned.addslice.ns_per_elem", "ns"},
	{"aggsrv.server.acked_ratio", "ratio"},
	{"aggsrv.wire.bytes_per_elem_computed", "B"},
	// collective-sim
	{"mpirt.world.spawn_us", "us"},
	{"mpirt.local.ns_per_elem", "ns"},
	{"mpirt.local.share", "ratio"},
	{"mpirt.global_us", "us"},
	{"mpirt.global.share", "ratio"},
	{"reduce.merges_per_op", "count"},
	{"mpirt.bytes_per_op_computed", "B"},
	{"mpirt.model.global_share", "ratio"},
	// every workload
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (report, error){
	"sum-local":      runLocal,
	"serve-tcp":      runServe,
	"collective-sim": runCollective,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line, the benchmark's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fullReport is the line before the result: everything measured, with
// the seed and the host it ran on.
type fullReport struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     hostRecord         `json:"host"`
	Values   map[string]float64 `json:"values"`
}

func main() {
	name := flag.String("workload", "", "workload: sum-local, serve-tcp or collective-sim")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceOut: filepath.Join(".bench_build", "trace-"+*name+".tsv")}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	full, res := render(*name, cfg, rep)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(full); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// render builds the report line and the result line. The result's
// metrics are exactly the end-to-end list (untraced) or the per-layer
// list (traced).
func render(name string, cfg config, rep report) (fullReport, result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: rep.values[d.name], Unit: d.unit}
	}
	vals := map[string]float64{}
	for k, v := range rep.values {
		vals[k] = v
	}
	if rep.attempted > 0 {
		vals["fail_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	full := fullReport{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host(), Values: vals}
	return full, res
}

// host record --------------------------------------------------------

type hostRecord struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu"`
	Caches     []string `json:"caches"`
	GoVersion  string   `json:"go"`
	Commit     string   `json:"commit"`
	Note       string   `json:"note"`
}

func host() hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Caches:     cacheSizes(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Note: "byte-rate and byte-count figures are computed from element counts and " +
			"encoded sizes, not measured memory or network bandwidth; inputs may sit in cache",
	}
}
