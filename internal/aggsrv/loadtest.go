package aggsrv

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// LoadConfig parameterizes a load run against a serving aggregator.
type LoadConfig struct {
	// Addr is the server address to dial.
	Addr string
	// Clients is the number of concurrent connections. Default 1.
	Clients int
	// Batch is the scalars per Deposit call. Default 64.
	Batch int
	// TotalDeposits is the total scalar deposits across all clients;
	// used when Duration is zero. Default 1<<18.
	TotalDeposits int64
	// Duration, when nonzero, runs each client until the deadline
	// instead of a fixed deposit count.
	Duration time.Duration
	// Key is the accumulator key every client deposits into.
	// Default "load".
	Key string
	// FlushEvery is the number of batches between timed flush
	// barriers (the latency samples). Default 16. The closing flush is
	// timed too when batches are pending, so every client contributes
	// at least one sample.
	FlushEvery int
}

func (c *LoadConfig) sanitize() {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.TotalDeposits <= 0 {
		c.TotalDeposits = 1 << 18
	}
	if c.Key == "" {
		c.Key = "load"
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 16
	}
}

// LoadResult summarizes a load run. All deposits are barriered by a
// final flush before the clock stops, so DepositsPerSec counts only
// scalars the server has actually folded in.
type LoadResult struct {
	Deposits       int64         // scalars acked into the server
	Batches        int64         // deposit frames sent
	Elapsed        time.Duration // wall time, first byte to last ack
	DepositsPerSec float64
	P50, P99       time.Duration // flush-barrier round-trip latency
	// PerClient[ci] is how many scalars client ci deposited; with
	// LoadValue this reconstructs the exact expected sum offline.
	PerClient []int64
}

// RunLoad drives cfg.Clients concurrent connections at the server,
// each depositing deterministic per-client data, and reports aggregate
// throughput plus flush-RTT latency quantiles. The deposit values are
// a function of (client, index) only, so a caller can reconstruct the
// expected exact sum independently (see TestServeCheck).
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	cfg.sanitize()
	perClient := (cfg.TotalDeposits + int64(cfg.Clients) - 1) / int64(cfg.Clients)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		deposits int64
		batches  int64
		samples  []time.Duration
		per      = make([]int64, cfg.Clients)
	)
	deadline := time.Time{}
	start := time.Now()
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			sent, nb, lat, err := loadClient(cfg, ci, perClient, deadline)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("client %d: %w", ci, err)
			}
			deposits += sent
			batches += nb
			per[ci] = sent
			samples = append(samples, lat...)
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return LoadResult{}, firstErr
	}
	res := LoadResult{
		Deposits:       deposits,
		Batches:        batches,
		Elapsed:        elapsed,
		DepositsPerSec: float64(deposits) / elapsed.Seconds(),
		PerClient:      per,
	}
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		res.P50 = samples[len(samples)*50/100]
		res.P99 = samples[len(samples)*99/100]
	}
	return res, nil
}

// LoadValue returns the scalar deposited by client ci at index i —
// the deterministic data function behind RunLoad, exported so checks
// can recompute the exact expected sum offline.
func LoadValue(ci int, i int64) float64 {
	// Mixed magnitudes and signs so the accumulator exercises several
	// bins; exact in every bin, so the expected sum is reproducible.
	return float64((ci+1)*(int(i%251)-125)) * 0x1p-10
}

func loadClient(cfg LoadConfig, ci int, perClient int64, deadline time.Time) (sent, batches int64, lat []time.Duration, err error) {
	cl, err := Dial(cfg.Addr)
	if err != nil {
		return 0, 0, nil, err
	}
	defer cl.Close()

	batch := make([]float64, cfg.Batch)
	lat = make([]time.Duration, 0, 256)
	var idx int64
	for {
		if deadline.IsZero() {
			if sent >= perClient {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		n := int64(len(batch))
		if deadline.IsZero() && perClient-sent < n {
			n = perClient - sent
		}
		for i := int64(0); i < n; i++ {
			batch[i] = LoadValue(ci, idx+i)
		}
		if err := cl.Deposit(cfg.Key, batch[:n]); err != nil {
			return sent, batches, lat, err
		}
		idx += n
		sent += n
		batches++
		if batches%int64(cfg.FlushEvery) == 0 {
			t0 := time.Now()
			if err := cl.Flush(); err != nil {
				return sent, batches, lat, err
			}
			lat = append(lat, time.Since(t0))
		}
	}
	t0 := time.Now()
	if err := cl.Flush(); err != nil {
		return sent, batches, lat, err
	}
	if batches%int64(cfg.FlushEvery) != 0 || len(lat) == 0 {
		lat = append(lat, time.Since(t0))
	}
	return sent, batches, lat, nil
}
