package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"

	"repro"
	"repro/internal/binned"
	"repro/internal/gen"
	"repro/internal/superacc"
	"repro/internal/wire"
)

// serve-tcp: an in-process aggregation server (default 16 shards) on
// loopback, driven in a closed loop by nproc client connections dialed
// during set-up. Each round deposits serveDeposits batches into the
// client's keys, the last as a locally folded DepositState, then
// flushes; every serveSnapEvery-th round is a Snapshot instead. The
// batch sizes straddle the server's coalescing threshold (64), so both
// the under-lock AddSlice path and the pre-fold+Merge path run. Each
// client owns every nproc-th of the serveKeys keys, so every snapshot
// has an exact expected value: all of that key's deposits come from the
// one connection, and a snapshot implies a flush of its own deposits.

const (
	serveKeys       = 64
	serveDeposits   = 8
	serveSnapEvery  = 16
	serveWarmRounds = 512
)

var serveBatchSizes = []int{16, 256, 4096}

// servePool is the number of distinct batches: every (size, cell) pair
// the same number of times.
var servePool = 28 * len(serveBatchSizes) * len(localCells)

// Span names of the traced serve-tcp run.
const (
	ssOp = iota
	ssDeposit
	ssDepositState
	ssFlush
	ssSnapshot
	ssIdleFlush
	ssDecode
)

type serveInputs struct {
	batches [][]float64
	states  []binned.State // each batch folded locally: the DepositState payload
	exact   []superacc.Acc // each batch's exact sum, for the oracle
	keys    []string
}

func newServeInputs(seed uint64) *serveInputs {
	in := &serveInputs{}
	for i := 0; i < servePool; i++ {
		combo := i % (len(serveBatchSizes) * len(localCells))
		c := localCells[combo/len(serveBatchSizes)]
		xs := gen.Spec{N: serveBatchSizes[combo%len(serveBatchSizes)], Cond: c.k, DynRange: c.dr, Seed: mix(seed, 1000+i)}.Generate()
		var st binned.State
		st.AddSlice(xs)
		var acc superacc.Acc
		acc.AddSlice(xs)
		in.batches = append(in.batches, xs)
		in.states = append(in.states, st)
		in.exact = append(in.exact, acc)
	}
	for k := 0; k < serveKeys; k++ {
		in.keys = append(in.keys, fmt.Sprintf("key-%02d", k))
	}
	return in
}

type serveStats struct {
	rounds, snaps, failed int64
	wrongSnaps            int64 // snapshots whose value or count was wrong
	elems                 int64 // scalars acked by flushes
	roundNs, snapNs       int64
	lat, snapLat          []int64
	depElems              int64 // scalars sent through Deposit
	wireBytes             int64 // computed bytes of deposit rounds, both directions
}

type serveClient struct {
	cfg     config
	in      *serveInputs
	cl      *repro.AggClient
	rng     *rand.Rand
	owned   []int
	lastKey int
	round   int64
	sent    int64 // scalars sent, state deposits counted by their count
	// exact and count are the oracle of every key, indexed like
	// serveInputs.keys (only owned keys are used): the exact sum and the
	// number of the scalars acked into the key. They are updated after
	// each round's timing ends, so the client's memory stays constant.
	exact []superacc.Acc
	count []int64
	st    serveStats
}

// snapshotOK reports whether a snapshot of key k carries the exact bits
// and count of everything acked into it.
func (c *serveClient) snapshotOK(k int, v float64, n int64) bool {
	return math.Float64bits(v) == math.Float64bits(c.exact[k].Float64()) && n == c.count[k]
}

// step runs one round, traced when tr is not nil.
func (c *serveClient) step(tr *tracer) error {
	c.round++
	if c.round%serveSnapEvery == 0 {
		key := c.in.keys[c.lastKey]
		t0 := now()
		tr.begin(ssOp)
		tr.begin(ssSnapshot)
		snap, err := c.cl.Snapshot(key)
		tr.end()
		tr.end()
		d := now() - t0
		if err != nil {
			return err
		}
		c.st.snaps++
		c.st.snapNs += d
		c.st.snapLat = append(c.st.snapLat, d)
		if !c.snapshotOK(c.lastKey, c.cfg.plant(snap.Value, c.round), snap.Count) {
			c.st.wrongSnaps++
		}
		if tr != nil {
			tr.begin(ssDecode)
			_, _, err := wire.DecodeBinned(snap.Wire)
			tr.end()
			return err
		}
		return nil
	}
	var elems, bytes int64
	var sent [serveDeposits]struct{ key, batch int }
	t0 := now()
	tr.begin(ssOp)
	for j := 0; j < serveDeposits; j++ {
		k := c.owned[c.rng.Intn(len(c.owned))]
		b := c.rng.Intn(len(c.in.batches))
		key := c.in.keys[k]
		var err error
		if j == serveDeposits-1 {
			tr.begin(ssDepositState)
			err = c.cl.DepositState(key, &c.in.states[b])
			tr.end()
			bytes += int64(7 + len(key) + wire.EncodedSize(wire.KindBinned))
		} else {
			tr.begin(ssDeposit)
			err = c.cl.Deposit(key, c.in.batches[b])
			tr.end()
			bytes += int64(7 + len(key) + 8*len(c.in.batches[b]))
			c.st.depElems += int64(len(c.in.batches[b]))
		}
		if err != nil {
			tr.end()
			return err
		}
		sent[j].key, sent[j].batch = k, b
		c.lastKey = k
		elems += int64(len(c.in.batches[b]))
	}
	tr.begin(ssFlush)
	err := c.cl.Flush()
	tr.end()
	tr.end()
	d := now() - t0
	if err != nil {
		return err
	}
	for _, s := range sent {
		c.exact[s.key].Merge(&c.in.exact[s.batch])
		c.count[s.key] += int64(len(c.in.batches[s.batch]))
	}
	c.sent += elems
	c.st.rounds++
	c.st.elems += elems
	c.st.roundNs += d
	c.st.lat = append(c.st.lat, d)
	c.st.wireBytes += bytes + 10 // flush frame and its ack
	if tr != nil {
		tr.begin(ssIdleFlush)
		err = c.cl.Flush()
		tr.end()
	}
	return err
}

type serveRig struct {
	srv     *repro.AggServer
	served  chan error
	clients []*serveClient
}

type serveBench struct {
	cfg      config
	in       *serveInputs
	nclients int
}

// drive runs every client concurrently, each for rounds rounds or, when
// rounds is 0, until deadline. A client stops at its first error, which
// counts as one failed op.
func (s *serveBench) drive(rig *serveRig, rounds int, deadline int64, tracers []*tracer) {
	var wg sync.WaitGroup
	for i, c := range rig.clients {
		var tr *tracer
		if tracers != nil {
			tr = tracers[i]
		}
		wg.Add(1)
		go func(c *serveClient, tr *tracer) {
			defer wg.Done()
			for r := 0; (rounds > 0 && r < rounds) || (rounds == 0 && now() < deadline); r++ {
				if err := c.step(tr); err != nil {
					c.st.failed++
					return
				}
			}
		}(c, tr)
	}
	wg.Wait()
}

// setup starts a server on a loopback port, dials the clients and warms
// every connection up with serveWarmRounds rounds.
func (s *serveBench) setup() (*serveRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{srv: repro.NewAggServer(repro.AggServerConfig{}), served: make(chan error, 1)}
	go func() { rig.served <- rig.srv.Serve(ln) }()
	for i := 0; i < s.nclients; i++ {
		cl, err := repro.DialAggregator(ln.Addr().String())
		if err != nil {
			s.teardown(rig)
			return nil, err
		}
		c := &serveClient{cfg: s.cfg, in: s.in, cl: cl, rng: rand.New(rand.NewSource(int64(mix(s.cfg.seed, 2000+i)))),
			exact: make([]superacc.Acc, serveKeys), count: make([]int64, serveKeys)}
		for k := i; k < serveKeys; k += s.nclients {
			c.owned = append(c.owned, k)
		}
		c.lastKey = c.owned[0]
		rig.clients = append(rig.clients, c)
	}
	s.drive(rig, serveWarmRounds, 0, nil)
	for _, c := range rig.clients {
		if c.st.failed > 0 {
			s.teardown(rig)
			return nil, fmt.Errorf("warm-up round failed")
		}
		c.st = serveStats{lat: make([]int64, 0, 1<<17), snapLat: make([]int64, 0, 1<<13)}
	}
	return rig, nil
}

func (s *serveBench) teardown(rig *serveRig) {
	for _, c := range rig.clients {
		c.cl.Close()
	}
	rig.srv.Close()
	<-rig.served
}

// verify checks the end state: every key's final snapshot must carry the
// bits and count of everything acked into it, and the server must have
// acked every scalar sent. It returns the checks made and failed.
func (s *serveBench) verify(rig *serveRig) (checks, failed int64, err error) {
	var sent int64
	for _, c := range rig.clients {
		sent += c.sent
		for _, k := range c.owned {
			if c.count[k] == 0 {
				continue
			}
			snap, err := c.cl.Snapshot(s.in.keys[k])
			if err != nil {
				return checks, failed, fmt.Errorf("final snapshot: %w", err)
			}
			checks++
			if !c.snapshotOK(k, s.cfg.plant(snap.Value, int64(k)), snap.Count) {
				failed++
			}
		}
	}
	checks++
	if rig.srv.Stats().Deposits != sent {
		failed++
	}
	return checks, failed, nil
}

// serveWindowS is the length of one measurement window in seconds.
const serveWindowS = 0.25

// collect moves the clients' stats of the window just run into a phase,
// whose ops are the deposit rounds, and into the run totals, then resets
// them for the next window.
func collect(rig *serveRig, wall int64, run *serveStats) phase {
	n := 0
	for _, c := range rig.clients {
		n += len(c.st.lat)
	}
	w := phase{wall: wall, lat: make([]int64, 0, n)}
	for _, c := range rig.clients {
		st := c.st
		w.ops += st.rounds
		w.elems += st.elems
		w.failed += st.failed + st.wrongSnaps
		w.lat = append(w.lat, st.lat...)
		run.rounds += st.rounds
		run.snaps += st.snaps
		run.failed += st.failed
		run.wrongSnaps += st.wrongSnaps
		run.elems += st.elems
		run.roundNs += st.roundNs
		run.snapNs += st.snapNs
		run.snapLat = append(run.snapLat, st.snapLat...)
		run.depElems += st.depElems
		run.wireBytes += st.wireBytes
		c.st = serveStats{lat: st.lat[:0], snapLat: st.snapLat[:0]}
	}
	return w
}

func runServe(cfg config) (report, error) {
	s := &serveBench{cfg: cfg, in: newServeInputs(cfg.seed), nclients: runtime.NumCPU()}
	rig, setupS, err := timedSetups(s.setup, s.teardown)
	if err != nil {
		return report{}, err
	}
	defer s.teardown(rig)
	var rep report
	rep.set("setup_s", setupS)
	window := int64(serveWindowS * 1e9)
	deadline := now() + int64(cfg.seconds*1e9)
	if !cfg.trace {
		var plain serveStats
		var ws []phase
		a0 := totalAlloc()
		for len(ws) == 0 || now() < deadline {
			t0 := now()
			s.drive(rig, 0, t0+window, nil)
			ws = append(ws, collect(rig, now()-t0, &plain))
		}
		alloc := totalAlloc() - a0
		checks, failed, err := s.verify(rig)
		if err != nil {
			return report{}, err
		}
		rep.attempted = plain.rounds + plain.snaps + plain.failed + checks
		rep.failed = plain.failed + plain.wrongSnaps + failed
		rep.setAlloc(alloc, ws)
		rep.setWindows(ws)
		rep.set("snap_p50_us", quantile(sortedCopy(plain.snapLat), 0.50))
		rep.set("snap_samples", float64(len(plain.snapLat)))
		return rep, nil
	}

	// Traced run: untraced and traced windows alternate, so both see the
	// same host conditions. Each client has a tracer; an idle flush after
	// every round and a standalone decode of every snapshot's state are
	// probes outside the op spans.
	names := []string{"op", "aggsrv.client.deposit", "aggsrv.client.deposit_state", "aggsrv.flush",
		"aggsrv.snapshot", "aggsrv.flush.idle", "wire.decode_binned"}
	tracers := make([]*tracer, len(rig.clients))
	for i := range rig.clients {
		tracers[i] = newTracer(names...)
	}
	var plain, traced serveStats
	for first := true; first || now() < deadline; first = false {
		s.drive(rig, 0, now()+window, nil)
		collect(rig, 0, &plain)
		s.drive(rig, 0, now()+window, tracers)
		collect(rig, 0, &traced)
	}
	tr := newTracer(names...)
	for _, t := range tracers {
		tr.absorb(t)
	}
	tr.write(cfg.traceOut)
	checks, failed, err := s.verify(rig)
	if err != nil {
		return report{}, err
	}
	rep.attempted = plain.rounds + plain.snaps + plain.failed + traced.rounds + traced.snaps + traced.failed + checks
	rep.failed = plain.failed + plain.wrongSnaps + traced.failed + traced.wrongSnaps + failed
	var sent int64
	for _, c := range rig.clients {
		sent += c.sent
	}
	flush, idle := tr.perCall(ssFlush)/1e3, tr.perCall(ssIdleFlush)/1e3
	rep.set("aggsrv.client.deposit_ns_per_elem", ratio(float64(tr.total[ssDeposit]), float64(traced.depElems)))
	rep.set("aggsrv.client.deposit_state_us", tr.perCall(ssDepositState)/1e3)
	rep.set("aggsrv.flush.rtt_us", flush)
	rep.set("aggsrv.flush.idle_rtt_us", idle)
	rep.set("aggsrv.server.apply_us", flush-idle)
	rep.set("aggsrv.snapshot.rtt_us", tr.perCall(ssSnapshot)/1e3)
	rep.set("wire.decode_binned_us", tr.perCall(ssDecode)/1e3)
	rep.set("binned.addslice.ns_per_elem", s.addSliceNsPerElem())
	rep.set("aggsrv.server.acked_ratio", ratio(float64(rig.srv.Stats().Deposits), float64(sent)))
	rep.set("aggsrv.wire.bytes_per_elem_computed", ratio(float64(traced.wireBytes), float64(traced.elems)))
	rep.set("trace.coverage", tr.coverage(ssOp, ssDeposit, ssDepositState, ssFlush, ssSnapshot))
	plainPerOp := ratio(float64(plain.roundNs+plain.snapNs), float64(plain.rounds+plain.snaps))
	rep.set("trace.overhead_ratio", ratio(ratio(float64(tr.total[ssOp]), float64(tr.calls[ssOp])), plainPerOp))
	return rep, nil
}

// addSliceNsPerElem times binned.State.AddSlice standalone over the batch
// pool, the same batch sizes the workload deposits.
func (s *serveBench) addSliceNsPerElem() float64 {
	var st binned.State
	var ns, elems int64
	for rep := 0; rep < 4; rep++ {
		for _, xs := range s.in.batches {
			st.Reset()
			t0 := now()
			st.AddSlice(xs)
			ns += now() - t0
			elems += int64(len(xs))
		}
	}
	return ratio(float64(ns), float64(elems))
}
