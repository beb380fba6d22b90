// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so benchmark numbers can be recorded as
// machine-readable artifacts (the repo's BENCH_sweep.json and
// BENCH_kernels.json):
//
//	go test ./internal/grid -run '^$' -bench Sweep -benchmem | benchjson
//
// Context lines (goos, goarch, cpu, pkg) are captured as metadata;
// every benchmark becomes one entry with its run count, ns/op, and —
// when -benchmem was given — B/op and allocs/op. Repeated result lines
// of one benchmark (`go test -count N`) fold into one entry holding the
// median ns/op, B/op, allocs/op and extra metrics, and the runs summed.
//
// With -compare, benchjson instead diffs two previously recorded
// documents and prints per-benchmark ns/op and B/op deltas, so the perf
// trajectory across PRs is reviewable at a glance. Benchmarks and
// custom metric keys present in only one document are reported as
// added/removed rather than silently skipped, and -threshold turns the
// comparison into a regression gate: exit status 1 when any shared
// benchmark's ns/op regressed by more than the given percentage.
//
//	benchjson -compare old.json new.json
//	benchjson -compare -threshold 10 old.json new.json  # CI gate
//
// With -ratio num,den, benchjson reports the ns/op ratio between two
// benchmarks of one document (a recorded JSON file argument, or `go
// test -bench` text on stdin) and -max turns it into an absolute
// performance gate: exit status 1 when num/den exceeds the given
// factor. This is how `make verify` pins the binned reproducible
// kernel to its acceptance envelope over the ST kernel floor:
//
//	go test ./internal/kernel -run '^$' -bench BinnedVsAlternatives |
//	  benchjson -ratio 'BenchmarkBinnedVsAlternatives1M/binned,BenchmarkBinnedVsAlternatives1M/stkernel' -max 2.2
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "hit-rate",
	// "MB/s") keyed by unit name.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the full document.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	compare := flag.Bool("compare", false,
		"compare two recorded JSON documents: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0,
		"with -compare: exit nonzero when any shared benchmark's ns/op regressed by more than this percentage (0 disables gating)")
	ratio := flag.String("ratio", "",
		"report ns/op ratio between two benchmarks, given as 'numName,denName'; reads a recorded JSON file argument or bench text on stdin")
	maxRatio := flag.Float64("max", 0,
		"with -ratio: exit nonzero when the ratio exceeds this factor (0 disables gating)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.1f%%: %s\n",
				len(regressed), *threshold, strings.Join(regressed, ", "))
			os.Exit(1)
		}
		return
	}
	if *threshold != 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -threshold requires -compare")
		os.Exit(2)
	}
	if *ratio != "" {
		if err := gateRatio(*ratio, *maxRatio); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *maxRatio != 0 {
		fmt.Fprintln(os.Stderr, "benchjson: -max requires -ratio")
		os.Exit(2)
	}
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gateRatio resolves the 'num,den' benchmark pair in a recorded JSON
// document (single file argument) or in bench text on stdin, prints
// the ns/op ratio, and errors when it exceeds max (if max > 0) — the
// absolute performance gate used by `make verify`.
func gateRatio(spec string, max float64) error {
	num, den, ok := strings.Cut(spec, ",")
	if !ok || num == "" || den == "" {
		return fmt.Errorf("-ratio wants 'numName,denName', got %q", spec)
	}
	var rep Report
	var err error
	switch flag.NArg() {
	case 0:
		rep, err = parse(bufio.NewScanner(os.Stdin))
	case 1:
		rep, err = loadReport(flag.Arg(0))
	default:
		return fmt.Errorf("-ratio takes at most one file argument")
	}
	if err != nil {
		return err
	}
	lookup := func(name string) (Result, error) {
		for _, r := range rep.Results {
			if r.Name == name {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("benchmark %q not found", name)
	}
	nr, err := lookup(num)
	if err != nil {
		return err
	}
	dr, err := lookup(den)
	if err != nil {
		return err
	}
	if dr.NsPerOp <= 0 {
		return fmt.Errorf("denominator %q has non-positive ns/op %g", den, dr.NsPerOp)
	}
	r := nr.NsPerOp / dr.NsPerOp
	fmt.Printf("%s / %s = %.3fx (%.1f / %.1f ns/op)\n", num, den, r, nr.NsPerOp, dr.NsPerOp)
	if max > 0 && r > max {
		return fmt.Errorf("ratio %.3fx exceeds the %.2fx gate", r, max)
	}
	return nil
}

// loadReport reads one previously recorded document.
func loadReport(path string) (Report, error) {
	var rep Report
	f, err := os.Open(path)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return rep, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// compareFiles prints per-benchmark ns/op and B/op deltas between two
// recorded documents. Benchmarks — and custom metric keys within a
// shared benchmark — present in only one document are listed as
// added/removed so silent coverage drift is visible. When threshold is
// positive, the returned slice names every shared benchmark whose
// ns/op regressed by more than threshold percent.
func compareFiles(w *os.File, oldPath, newPath string, threshold float64) ([]string, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return nil, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return nil, err
	}
	oldBy := make(map[string]Result, len(oldRep.Results))
	for _, r := range oldRep.Results {
		oldBy[r.Name] = r
	}
	var onlyNew []string
	type row struct {
		name string
		o, n Result
	}
	var rows []row
	for _, r := range newRep.Results {
		o, ok := oldBy[r.Name]
		if !ok {
			onlyNew = append(onlyNew, r.Name)
			continue
		}
		rows = append(rows, row{r.Name, o, r})
		delete(oldBy, r.Name)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var regressed []string
	fmt.Fprintf(w, "%-52s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%-52s %14.1f %14.1f %7.1f%% %12d %12d %7s\n",
			r.name, r.o.NsPerOp, r.n.NsPerOp, pct(r.o.NsPerOp, r.n.NsPerOp),
			r.o.BytesPerOp, r.n.BytesPerOp, pctStr(float64(r.o.BytesPerOp), float64(r.n.BytesPerOp)))
		if threshold > 0 && pct(r.o.NsPerOp, r.n.NsPerOp) > threshold {
			regressed = append(regressed, r.name)
		}
		for _, line := range extraDiff(r.o.Extra, r.n.Extra) {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "%-52s (added: only in %s)\n", name, newPath)
	}
	removed := make([]string, 0, len(oldBy))
	for name := range oldBy {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-52s (removed: only in %s)\n", name, oldPath)
	}
	return regressed, nil
}

// extraDiff renders the custom-metric (Result.Extra) comparison of one
// shared benchmark: changed values plus keys present on only one side.
func extraDiff(old, new map[string]float64) []string {
	if len(old) == 0 && len(new) == 0 {
		return nil
	}
	keys := make(map[string]bool, len(old)+len(new))
	for k := range old {
		keys[k] = true
	}
	for k := range new {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var out []string
	for _, k := range sorted {
		ov, inOld := old[k]
		nv, inNew := new[k]
		switch {
		case !inOld:
			out = append(out, fmt.Sprintf("%s: %g (added metric)", k, nv))
		case !inNew:
			out = append(out, fmt.Sprintf("%s: %g (removed metric)", k, ov))
		default:
			out = append(out, fmt.Sprintf("%s: %g -> %g (%+.1f%%)", k, ov, nv, pct(ov, nv)))
		}
	}
	return out
}

// pct returns the relative change from old to new in percent; negative
// is an improvement for ns/op and B/op.
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

func pctStr(old, new float64) string {
	if old == 0 && new == 0 {
		return "0%"
	}
	if old == 0 {
		return "+new"
	}
	return fmt.Sprintf("%.1f%%", pct(old, new))
}

func parse(sc *bufio.Scanner) (Report, error) {
	var rep Report
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	rep.Results = foldRepeats(rep.Results)
	return rep, sc.Err()
}

// foldRepeats merges the result lines of one benchmark (same name and
// procs) into one entry at the place of its first line: the median of
// every measured value across the lines, and the runs summed.
func foldRepeats(rs []Result) []Result {
	type key struct {
		name  string
		procs int
	}
	idx := map[key]int{}
	var groups [][]Result
	for _, r := range rs {
		k := key{r.Name, r.Procs}
		i, ok := idx[k]
		if !ok {
			i = len(groups)
			idx[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	out := make([]Result, len(groups))
	for i, g := range groups {
		out[i] = medianResult(g)
	}
	return out
}

// medianResult is the median of one benchmark's result lines; an extra
// metric's median is over the lines that report it.
func medianResult(g []Result) Result {
	r := Result{Name: g[0].Name, Procs: g[0].Procs}
	var ns, bytes, allocs []float64
	extra := map[string][]float64{}
	for _, x := range g {
		r.Runs += x.Runs
		ns = append(ns, x.NsPerOp)
		bytes = append(bytes, float64(x.BytesPerOp))
		allocs = append(allocs, float64(x.AllocsPerOp))
		for unit, v := range x.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	r.NsPerOp = median(ns)
	r.BytesPerOp = int64(math.Round(median(bytes)))
	r.AllocsPerOp = int64(math.Round(median(allocs)))
	for unit, vs := range extra {
		if r.Extra == nil {
			r.Extra = make(map[string]float64, len(extra))
		}
		r.Extra[unit] = median(vs)
	}
	return r
}

// median returns the middle value of vs, or the mean of the two middle
// values when len(vs) is even.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// parseResult decodes one "BenchmarkX-8  100  12345 ns/op  67 B/op  8
// allocs/op" line; the memory columns are optional.
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	var r Result
	r.Name = fields[0]
	r.Procs = 1
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Runs = runs
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64, 1)
			}
			r.Extra[unit] = v
		}
	}
	if r.NsPerOp == 0 && r.Runs == 0 {
		return Result{}, false
	}
	return r, true
}
