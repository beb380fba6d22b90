package aggsrv

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/binned"
	"repro/internal/gen"
	"repro/internal/wire"
)

var serveCheck = flag.Bool("servecheck", false,
	"run the full serve-check: 5-second load test with a 100k deposits/sec floor")

// startServer spins up a server on a random port and returns its
// address. Shutdown errors fail the test at cleanup.
func startServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// TestDepositSnapshotBasic pins the end-to-end contract on one
// connection: the snapshot value equals the serial binned sum bitwise,
// and the returned wire state decodes to the same count.
func TestDepositSnapshotBasic(t *testing.T) {
	addr, srv := startServer(t, Config{})
	xs := gen.Spec{N: 10_000, Cond: 1e12, DynRange: 20, Seed: 7}.Generate()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Deposit("basic", xs); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	snap, err := cl.Snapshot("basic")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want := binned.Sum(xs)
	if math.Float64bits(snap.Value) != math.Float64bits(want) {
		t.Fatalf("snapshot value %x, want serial binned sum %x",
			math.Float64bits(snap.Value), math.Float64bits(want))
	}
	if snap.Count != int64(len(xs)) {
		t.Fatalf("snapshot count %d, want %d", snap.Count, len(xs))
	}
	st := srv.Stats()
	if st.Deposits != int64(len(xs)) || st.Keys != 1 || st.Snapshots != 1 {
		t.Fatalf("stats %+v, want %d deposits, 1 key, 1 snapshot", st, len(xs))
	}

	// A missing key snapshots as the empty sum: count 0, value -0
	// (binned's empty-sum convention).
	empty, err := cl.Snapshot("no-such-key")
	if err != nil {
		t.Fatalf("empty snapshot: %v", err)
	}
	if empty.Count != 0 {
		t.Fatalf("empty snapshot count %d, want 0", empty.Count)
	}
}

// depositPartition drives nClients concurrent connections, each
// depositing its (shuffled) share of xs into key with the given batch
// size, and waits for all of them to flush.
func depositPartition(t *testing.T, addr, key string, xs []float64, nClients, batch int, seed int64) {
	t.Helper()
	// Shuffle assignment: element i goes to a pseudo-random client, so
	// each run presents a different interleaving and partition.
	rng := rand.New(rand.NewSource(seed))
	parts := make([][]float64, nClients)
	for _, x := range xs {
		ci := rng.Intn(nClients)
		parts[ci] = append(parts[ci], x)
	}
	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for ci := 0; ci < nClients; ci++ {
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for len(part) > 0 {
				n := batch
				if n > len(part) {
					n = len(part)
				}
				if err := cl.Deposit(key, part[:n]); err != nil {
					errc <- err
					return
				}
				part = part[n:]
			}
			if err := cl.Flush(); err != nil {
				errc <- err
			}
		}(parts[ci])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("client error: %v", err)
	}
}

// TestArrivalOrderInvariance is the tentpole acceptance pin: the same
// dataset partitioned across 256 concurrent connections, with shuffled
// assignment and varying batch sizes, snapshots to bits identical to
// the serial binned sum — arrival order, connection count, and batch
// sizing are invisible in the result.
func TestArrivalOrderInvariance(t *testing.T) {
	nClients := 256
	n := 200_000
	if raceEnabled || testing.Short() {
		nClients, n = 32, 20_000
	}
	xs := gen.Spec{N: n, Cond: 1e14, DynRange: 30, Seed: 42}.Generate()
	want := math.Float64bits(binned.Sum(xs))

	addr, _ := startServer(t, Config{Shards: 8})
	for run, batch := range []int{1, 64, 4096} {
		if (raceEnabled || testing.Short()) && batch == 1 {
			batch = 16 // batch-1 at 20k frames is still covered; keep -race fast
		}
		key := string(rune('a' + run))
		depositPartition(t, addr, key, xs, nClients, batch, int64(1000+run))
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		snap, err := cl.Snapshot(key)
		cl.Close()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if got := math.Float64bits(snap.Value); got != want {
			t.Fatalf("batch %d: value bits %x, want %x — arrival order leaked into the result",
				batch, got, want)
		}
		if snap.Count != int64(len(xs)) {
			t.Fatalf("batch %d: count %d, want %d", batch, snap.Count, len(xs))
		}
	}
}

// TestStateDeposit pins the rank-local-partials path: clients that
// accumulate locally and ship one canonical wire state produce the
// same bits as clients streaming every scalar.
func TestStateDeposit(t *testing.T) {
	addr, _ := startServer(t, Config{})
	xs := gen.SumZeroSeries(50_000, 25, 99)
	want := math.Float64bits(binned.Sum(xs))

	nRanks := 8
	var wg sync.WaitGroup
	errc := make(chan error, nRanks)
	per := (len(xs) + nRanks - 1) / nRanks
	for r := 0; r < nRanks; r++ {
		lo, hi := r*per, (r+1)*per
		if hi > len(xs) {
			hi = len(xs)
		}
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			var local binned.State
			local.AddSlice(part)
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			if err := cl.DepositState("partials", &local); err != nil {
				errc <- err
				return
			}
			errc <- cl.Flush()
		}(xs[lo:hi])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("rank error: %v", err)
		}
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	snap, err := cl.Snapshot("partials")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if got := math.Float64bits(snap.Value); got != want {
		t.Fatalf("state-deposit value bits %x, want %x", got, want)
	}
	if snap.Count != int64(len(xs)) {
		t.Fatalf("count %d, want %d", snap.Count, len(xs))
	}
}

// TestStateDepositRejectsForgedBins pins the restore validation at the
// service boundary: a state frame whose bins no live state can hold (off
// the bin's quantum grid, non-finite, or in a pad slot) gets an error
// reply, and the key it named keeps its snapshot bits. An off-grid bin
// would make the key's value depend on the order later frames arrive
// in; an Inf bin would turn it into NaN.
func TestStateDepositRejectsForgedBins(t *testing.T) {
	addr, srv := startServer(t, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	var local binned.State
	local.AddSlice([]float64{0x1p13, 0.1, -3})
	if err := cl.DepositState("k", &local); err != nil {
		t.Fatalf("deposit state: %v", err)
	}
	before, err := cl.Snapshot("k")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Bins[j+2] is bin j; slots 0 and 1 are padding.
	forge := map[string]func(*binned.Snapshot){
		"off-grid bin": func(s *binned.Snapshot) { s.Bins[33+2] = 0.1 },
		"Inf bin":      func(s *binned.Snapshot) { s.Bins[33+2] = math.Inf(1) },
		"NaN bin":      func(s *binned.Snapshot) { s.Bins[40+2] = math.NaN() },
		"pad slot":     func(s *binned.Snapshot) { s.Bins[0] = 0x1p-1074 },
	}
	for name, mut := range forge {
		t.Run(name, func(t *testing.T) {
			var st binned.State
			st.Add(0x1p13)
			snap := st.Snapshot()
			mut(&snap)
			payload := wire.AppendBinned(nil, &snap)
			frame := appendFrameHeader(nil, 1+2+len("k")+len(payload))
			frame = append(frame, opState)
			frame = appendKey(frame, "k")
			frame = append(frame, payload...)
			fc, err := Dial(addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer fc.Close()
			if _, err := fc.bw.Write(frame); err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := fc.Flush(); err == nil {
				t.Fatal("forged state frame was accepted")
			}
		})
	}
	after, err := cl.Snapshot("k")
	if err != nil {
		t.Fatalf("snapshot after forged frames: %v", err)
	}
	if math.Float64bits(after.Value) != math.Float64bits(before.Value) || !bytes.Equal(after.Wire, before.Wire) {
		t.Fatalf("forged frames changed the key: value %x -> %x", math.Float64bits(before.Value), math.Float64bits(after.Value))
	}
	if got := srv.Stats().Deposits; got != 3 {
		t.Fatalf("deposit count %d, want 3", got)
	}
}

// TestSnapshotUnderLoad pins that snapshots taken while other
// connections are still depositing return a consistent state (it
// decodes, self-checks, and its count never regresses), and that the
// final snapshot equals the serial sum.
func TestSnapshotUnderLoad(t *testing.T) {
	addr, _ := startServer(t, Config{Shards: 4})
	xs := gen.Spec{N: 60_000, Cond: 1e10, DynRange: 15, Seed: 5}.Generate()
	want := math.Float64bits(binned.Sum(xs))

	done := make(chan struct{})
	go func() {
		defer close(done)
		depositPartition(t, addr, "hot", xs, 8, 128, 77)
	}()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	var lastCount int64 = -1
	for i := 0; ; i++ {
		snap, err := cl.Snapshot("hot") // decodes + self-checks internally
		if err != nil {
			t.Fatalf("snapshot under load: %v", err)
		}
		if snap.Count < lastCount {
			t.Fatalf("snapshot count regressed: %d after %d", snap.Count, lastCount)
		}
		lastCount = snap.Count
		select {
		case <-done:
			final, err := cl.Snapshot("hot")
			if err != nil {
				t.Fatalf("final snapshot: %v", err)
			}
			if got := math.Float64bits(final.Value); got != want {
				t.Fatalf("final value bits %x, want %x", got, want)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestZeroAllocDepositPath pins the perf contract: once a connection's
// buffers reach steady state, processing a deposit frame allocates
// nothing — on both the direct (small batch) and coalesced (large
// batch) paths.
func TestZeroAllocDepositPath(t *testing.T) {
	srv := New(Config{})
	c := srv.pool.Get().(*connState)

	mkFrame := func(n int) []byte {
		body := []byte{opDeposit}
		body = binary.LittleEndian.AppendUint16(body, 4)
		body = append(body, "key0"...)
		for i := 0; i < n; i++ {
			body = binary.LittleEndian.AppendUint64(body, math.Float64bits(float64(i)*1.5))
		}
		return body
	}
	for _, n := range []int{8, coalesceMin, 4096} {
		body := mkFrame(n)
		// Warm up: grow c.vals, insert the key, size the scratch state.
		for i := 0; i < 3; i++ {
			c.out = c.out[:4]
			if err := srv.process(c, body); err != nil {
				t.Fatalf("warmup process: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			c.out = c.out[:4]
			if err := srv.process(c, body); err != nil {
				t.Fatalf("process: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("batch %d: %v allocs/op on the deposit path, want 0", n, allocs)
		}
	}
}

// TestProtocolErrors pins that malformed frames get an 'E' reply (or a
// closed connection) and never crash or corrupt the server.
func TestProtocolErrors(t *testing.T) {
	addr, srv := startServer(t, Config{MaxFrame: 1 << 16})

	send := func(t *testing.T, frame []byte) error {
		t.Helper()
		cl, err := Dial(addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		if _, err := cl.bw.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := cl.bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		_, _, err = cl.readReply()
		return err
	}
	frame := func(body ...byte) []byte {
		f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		return append(f, body...)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown op", frame('Z', 0, 0)},
		{"zero-length frame", binary.LittleEndian.AppendUint32(nil, 0)},
		{"oversized frame", binary.LittleEndian.AppendUint32(nil, 1<<20)},
		{"truncated key", frame(opDeposit, 10, 0, 'a', 'b')},
		{"oversized key", frame(opDeposit, 0xff, 0xff)},
		{"ragged scalar payload", frame(opDeposit, 1, 0, 'k', 1, 2, 3)},
		{"flush with trailing bytes", frame(opFlush, 0)},
		{"snapshot with trailing bytes", frame(opSnap, 1, 0, 'k', 9)},
		{"state deposit with junk", frame(opState, 1, 0, 'k', 0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := send(t, tc.frame); err == nil {
				t.Fatal("malformed frame was accepted")
			}
		})
	}
	// The server survived all of it and still serves correct sums.
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after abuse: %v", err)
	}
	defer cl.Close()
	if err := cl.Deposit("after", []float64{1, 2, 3}); err != nil {
		t.Fatalf("deposit after abuse: %v", err)
	}
	snap, err := cl.Snapshot("after")
	if err != nil {
		t.Fatalf("snapshot after abuse: %v", err)
	}
	if snap.Value != 6 || snap.Count != 3 {
		t.Fatalf("post-abuse snapshot %+v, want value 6 count 3", snap)
	}
	if srv.Stats().Deposits != 3 {
		t.Fatalf("malformed frames leaked into deposit count: %+v", srv.Stats())
	}
}

// TestShutdownDrain pins graceful shutdown: Serve returns nil, acked
// deposits are retained, and new connections are refused.
func TestShutdownDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := cl.Deposit("drain", []float64{0.5, 0.25}); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown, want nil", err)
	}
	if got := srv.Stats().Deposits; got != 2 {
		t.Fatalf("acked deposits lost in drain: %d, want 2", got)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 250*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServeCheck is the CI gate behind `make serve-check`: always runs
// a quick arrival-order pin; with -servecheck it additionally runs a
// 5-second load test and fails below 100k deposits/sec or on any bit
// mismatch between the server state and the offline-recomputed sum.
func TestServeCheck(t *testing.T) {
	addr, _ := startServer(t, Config{})

	// Invariance pin (always on): two different partition/batch shapes
	// of the same data agree bitwise.
	xs := gen.Spec{N: 30_000, Cond: 1e13, DynRange: 25, Seed: 11}.Generate()
	want := math.Float64bits(binned.Sum(xs))
	depositPartition(t, addr, "check-a", xs, 16, 1, 1)
	depositPartition(t, addr, "check-b", xs, 3, 4096, 2)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for _, key := range []string{"check-a", "check-b"} {
		snap, err := cl.Snapshot(key)
		if err != nil {
			t.Fatalf("snapshot %s: %v", key, err)
		}
		if got := math.Float64bits(snap.Value); got != want {
			t.Fatalf("%s: value bits %x, want %x", key, got, want)
		}
	}
	if !*serveCheck {
		t.Log("quick pin only; run with -servecheck for the 5-second load gate")
		return
	}

	// Full gate: 5-second mini load test.
	res, err := RunLoad(LoadConfig{
		Addr:     addr,
		Clients:  4,
		Batch:    256,
		Duration: 5 * time.Second,
		Key:      "check-load",
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Logf("serve-check: %.0f deposits/sec (%d scalars, %d batches, p50 %v p99 %v)",
		res.DepositsPerSec, res.Deposits, res.Batches, res.P50, res.P99)
	if res.DepositsPerSec < 100_000 {
		t.Fatalf("throughput %.0f deposits/sec below the 100k serve-check floor", res.DepositsPerSec)
	}
	snap, err := cl.Snapshot("check-load")
	if err != nil {
		t.Fatalf("load snapshot: %v", err)
	}
	if snap.Count != res.Deposits {
		t.Fatalf("server folded %d deposits, load run acked %d", snap.Count, res.Deposits)
	}
	// Bit gate: recompute the exact expected sum offline from the
	// deterministic per-client data function and compare bitwise.
	var expect binned.State
	for ci, n := range res.PerClient {
		for i := int64(0); i < n; i++ {
			expect.Add(LoadValue(ci, i))
		}
	}
	if got, want := math.Float64bits(snap.Value), math.Float64bits(expect.Finalize()); got != want {
		t.Fatalf("load sum bits %x, want offline-recomputed %x", got, want)
	}
}

// TestLoadShortRunLatency pins the closing flush as a latency sample:
// a cell where no client reaches FlushEvery batches (16 clients sending
// two 4096-scalar batches each, as BENCH_serve's c16_b4096 does) still
// reports a flush-barrier p50 and p99.
func TestLoadShortRunLatency(t *testing.T) {
	addr, _ := startServer(t, Config{})
	res, err := RunLoad(LoadConfig{
		Addr:          addr,
		Clients:       16,
		Batch:         4096,
		TotalDeposits: 16 * 2 * 4096,
		Key:           "short",
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res.Batches != 32 {
		t.Fatalf("%d batches, want 2 per client", res.Batches)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("p50 %v p99 %v: want a positive flush latency from every client", res.P50, res.P99)
	}
}
