package main

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/superacc"
)

var clockBase = time.Now()

// now is the monotonic clock in nanoseconds since start-up.
func now() int64 { return int64(time.Since(clockBase)) }

// mix derives an independent 64-bit seed for stream i of a run seed
// (splitmix64 finalizer).
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// quantile is the nearest-rank q-quantile of sorted ns samples, in µs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// phase accumulates the ops of one measured window of a run.
type phase struct {
	ops, failed, elems int64
	opNs               int64   // summed op durations
	wall               int64   // the window's wall time
	lat                []int64 // per-op durations
}

// sumPhases totals the op and failure counts of a run's windows.
func sumPhases(ws []phase) (ops, failed int64) {
	for _, w := range ws {
		ops += w.ops
		failed += w.failed
	}
	return ops, failed
}

// setWindows reports the throughput and latency of a run measured in
// short windows. It keeps the fastest quarter of the windows (by ops per
// second) and pools them: the rates are their ops and elements over
// their summed wall time, and p50 and p99 come from all their latencies
// together. On a small shared host the speed swings by a fifth from
// second to second in stretches of several seconds (a busy neighbour
// costs up to half the speed); the fastest quarter traces the
// undisturbed speed, and pooling gives each quantile thousands of
// samples, so runs agree far better than on all windows or on the best
// single one.
func (r *report) setWindows(ws []phase) {
	// Read before pooling, so the pooled copy is not counted.
	r.set("peak_rss_mb", peakRSSMB())
	ws = slices.Clone(ws)
	opRate := func(w phase) float64 { return float64(w.ops) / float64(w.wall) }
	slices.SortFunc(ws, func(a, b phase) int { return cmp.Compare(opRate(b), opRate(a)) })
	var kept phase
	for _, w := range ws[:max(1, len(ws)/4)] {
		kept.ops += w.ops
		kept.elems += w.elems
		kept.wall += w.wall
		kept.lat = append(kept.lat, w.lat...)
	}
	s := float64(kept.wall) / 1e9
	lat := kept.lat
	slices.Sort(lat)
	r.set("ops_per_s", float64(kept.ops)/s)
	r.set("elems_per_s", float64(kept.elems)/s)
	r.set("op_p50_us", quantile(lat, 0.50))
	r.set("op_p99_us", quantile(lat, 0.99))
	r.set("samples", float64(len(lat)))
	r.set("windows", float64(len(ws)))
}

// setAlloc reports the heap bytes allocated per op during a run's
// windows, less the benchmark's own latency buffers.
func (r *report) setAlloc(alloc uint64, ws []phase) {
	var latBytes uint64
	for _, w := range ws {
		latBytes += 8 * uint64(cap(w.lat))
	}
	ops, _ := sumPhases(ws)
	r.set("alloc_bytes_per_op", float64(alloc-min(alloc, latBytes))/float64(ops))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// timedSetups runs setup setupReps times and returns the median duration
// in seconds together with the last set-up value; every earlier value is
// torn down first.
func timedSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	ds := make([]int64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, now()-t0)
		last = v
	}
	return last, float64(sortedCopy(ds)[setupReps/2]) / 1e9, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// totalAlloc is the cumulative Go heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// oracle ---------------------------------------------------------------

const unitRoundoff = 0x1p-53

// oracle holds the independent reference for one summation: the
// correctly rounded exact sum and an a-priori error bound that holds for
// every summation order.
type oracle struct {
	exact float64
	bound float64
}

// newOracle computes the reference for xs with a superaccumulator, never
// from the code under test. The bound is γ_{n−1}·Σ|x| (Higham's bound
// for recursive summation in any order) plus 2u·Σ|x| for rounding the
// exact sum to a float64 and for the subtraction in the check.
func newOracle(xs []float64) oracle {
	var abs superacc.Acc
	for _, x := range xs {
		abs.Add(math.Abs(x))
	}
	nu := float64(len(xs)-1) * unitRoundoff
	if nu < 0 {
		nu = 0
	}
	gamma := nu / (1 - nu)
	return oracle{exact: superacc.Sum(xs), bound: (gamma + 2*unitRoundoff) * abs.Float64() * (1 + 4*unitRoundoff)}
}

// check reports whether v is an acceptable answer. A reproducible result
// (tolerance 0 or the BN operator) must carry the exact sum's bits;
// any other must lie within the bound.
func (o oracle) check(v float64, reproducible bool) bool {
	if reproducible {
		return math.Float64bits(v) == math.Float64bits(o.exact)
	}
	return math.Abs(v-o.exact) <= o.bound
}

// plant corrupts v when the run plants wrong answers and i is due.
func (c config) plant(v float64, i int64) float64 {
	if c.plantEvery > 0 && i%int64(c.plantEvery) == 0 {
		return v + 1 + math.Abs(v)
	}
	return v
}

// tracer ---------------------------------------------------------------

// keptSpans caps the raw spans one tracer retains for the trace file;
// the per-layer totals cover every span regardless.
const keptSpans = 1 << 15

// span is one retained span. Spans of one op share op; parent is the id
// of the enclosing span (-1 for the op's root span).
type span struct {
	op, id, parent int64
	name           int
	start, end     int64
}

type openSpan struct {
	id, start, child int64
	name             int
}

// tracer records nested spans around calls into the layers from the
// benchmark's own code. Self time is a span's duration minus the part
// its child spans cover. A tracer belongs to one goroutine. A nil
// tracer records nothing, so traced and untraced runs share code.
type tracer struct {
	names  []string
	self   []int64
	total  []int64
	calls  []int64
	stack  []openSpan
	ops    int64
	nextID int64
	kept   []span
}

func newTracer(names ...string) *tracer {
	return &tracer{
		names: names,
		self:  make([]int64, len(names)),
		total: make([]int64, len(names)),
		calls: make([]int64, len(names)),
		kept:  make([]span, 0, 1024),
	}
}

// begin opens a span named names[name]; a span opened with an empty
// stack starts a new op.
func (t *tracer) begin(name int) {
	if t == nil {
		return
	}
	if len(t.stack) == 0 {
		t.ops++
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, name: name, start: now()})
}

// end closes the innermost span and returns its duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	e := now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := e - o.start
	t.self[o.name] += d - o.child
	t.total[o.name] += d
	t.calls[o.name]++
	parent := int64(-1)
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		parent = t.stack[n-1].id
	}
	if len(t.kept) < keptSpans {
		t.kept = append(t.kept, span{op: t.ops, id: o.id, parent: parent, name: o.name, start: o.start, end: e})
	}
	return d
}

// absorb adds another tracer's totals (same names) into t, for
// workloads that trace one tracer per goroutine.
func (t *tracer) absorb(o *tracer) {
	for i := range t.names {
		t.self[i] += o.self[i]
		t.total[i] += o.total[i]
		t.calls[i] += o.calls[i]
	}
	for _, s := range o.kept {
		s.op += t.ops
		s.id += t.nextID
		if s.parent >= 0 {
			s.parent += t.nextID
		}
		t.kept = append(t.kept, s)
	}
	t.ops += o.ops
	t.nextID += o.nextID
}

// perCall is the mean total duration of a span name, in ns.
func (t *tracer) perCall(name int) float64 {
	if t.calls[name] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.calls[name])
}

// coverage is the layers' summed self time over the op spans' time,
// where root is the op span name and layers are its descendants' names.
func (t *tracer) coverage(root int, layers ...int) float64 {
	var s int64
	for _, l := range layers {
		s += t.self[l]
	}
	return ratio(float64(s), float64(t.total[root]))
}

// write saves the retained spans as TSV: op, id, parent, name, start and
// end in ns since start-up. The file is a by-product: a failure to
// write it is reported on stderr and does not fail the run.
func (t *tracer) write(path string) {
	err := func() error {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns")
		for _, s := range t.kept {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, t.names[s.name], s.start, s.end)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace file: %v\n", err)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
