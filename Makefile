GO ?= go

.PHONY: build test verify bench bench-json artifacts calibrate-quick serve-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the pre-merge gate: static checks (a gofmt-clean tree and
# vet), the full test suite under the race detector (the parallel
# engine, grid.Sweep, and mpirt all run goroutine pools that must stay
# race-clean), and an explicit pass over
# the fused-engine and kernel-layer guarantees — the fused sweep's
# bitwise replay through independent single-algorithm executors,
# kernel/generic equivalence, and the zero-allocation trial and fold
# loops. The bounds-validation pass
# checks every reported error bound differentially against the bigref
# ground truth (deterministic bounds never violated, probabilistic at
# most at the stated rate) plus the selection-path audits: degenerate
# profiles, cache bucket boundaries, and empty-shard merge identity.
# The mpirt pass pins the collective layer at full scale (the race run
# above already covers it at 256 ranks): all seven topologies bitwise
# equal to single-rank BN under arrival-order jitter at 10^4 ranks,
# MPICH-style non-power-of-two fold-in, O(ranks) inbox memory with
# credit backpressure, >=80% selection-table/model agreement, BN
# AllReduce bits on every rank, a private VectorAllReduce result per
# rank, World.Run's rank slab, every Rabenseifner/RSAG
# merge expression against the schedule's definition with empty
# exchanges skipped, the messages those schedules send,
# back-to-back collectives free of credit deadlock, states recycled
# across 50 Runs alternating BN and ST (and never within one Run), a
# warm World's allocation bounds, a cold World's one allocation per
# rank to fold, the rank worker pool (a warm Run starts no goroutine,
# at most 256 workers stay parked, a dropped World is collected, a
# Goexit rank lets Run return), and a panicking rank that releases
# the peers waiting on it (a negative user tag cannot pose as its
# abort notice). The BN pass also
# pins the reduce.Op.Merge ownership rule, the Leaves contract (each
# element its own Leaf) and the FoldSlice/Leaves dst contract for every
# algorithm's operator, BN's Leaves at two allocations per vector with
# a nil dst and none with a reused one, a short load run's flush
# latency, the window finalize against the superaccumulator (random states and
# the FuzzBinnedFinalize seeds), and restore validation: forged bins
# rejected by binned.Restore and by the aggregation server, and every
# live state accepted. The kernel/parallel pass also pins the engine's
# chunk-fold contract (every algorithm equals its sequential monoid
# fold, ST/PW from a +0 start on all-zero data), and the BN pass the
# algorithm table (every sum row's names, cost order, reproducible flag
# and out-of-range panics).
# The final step is the binned performance gate: a fresh measurement of
# the two-level BN kernel against the non-reproducible ST kernel floor
# at 1M elements, failed when BN drifts past 2.2x (the acceptance
# envelope around the <=2x target, see BENCH_binned.json).
# calibrate-quick is the calibration smoke pass at the end: a
# seconds-scale host calibration written, drift-checked against fresh
# probes (bitwise for accuracy), and removed.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'CrossTopology|ExtremeScale|NonPowerOfTwo|Backpressure|InboxMemory|SelectionTable|DoubleTreeStructure|RSAGBitwise|AllReduceBN|OwnResult|RunRankSlab|MergeExpression|MessageCounts|WorldReuse|TwiceInOneRun|WarmWorld|AbortUnblocks|NegativeUserTag|Pool|ColdWorld' ./internal/mpirt
	$(GO) test -run 'Equivalence|Replay|Fused|Allocs|PlanSource|WorkerCounts' ./internal/tree ./internal/grid ./internal/metrics
	$(GO) test -run 'Equivalence|Allocs|NonFinite|BatchDeposit|MatchesSequentialMonoidFold' ./internal/kernel ./internal/parallel ./internal/selector ./internal/superacc
	$(GO) test -run 'Fused|SpecSum|Cache|SelectAndSum|ExactBypass|ToleranceZero|DefaultServesExact|ProfileOp|Associativity|ArbitrarySplits|Clamp|Nearest|CSum' ./internal/selector .
	$(GO) test -run 'Binned|Merged|Invariance|Permutation|Specials|Ladder|Allocs|OpMergeOwnership|Leaves|RestoreRejects|LiveStatesValidate|ForgedBins|Registry|LoadShortRun' ./internal/binned ./internal/sum ./internal/kernel ./internal/aggsrv
	$(GO) test -run 'BoundsDifferential|Probabilistic|Degenerate|Boundary|MergeEmpty|ChainHeight|Gamma' ./internal/selector ./internal/sum
	$(GO) test -run 'BoundsExt|CollectivesExt' ./internal/experiments
	$(GO) test ./internal/kernel -run '^$$' -bench 'BinnedVsAlternatives1M/(binned|stkernel)' -benchtime 0.3s \
		| $(GO) run ./cmd/benchjson -ratio 'BenchmarkBinnedVsAlternatives1M/binned,BenchmarkBinnedVsAlternatives1M/stkernel' -max 2.2
	$(MAKE) serve-check
	$(MAKE) calibrate-quick

# serve-check boots the aggregation server on a random port and gates
# the reduction-as-a-service path: the arrival-order-invariance pin
# (two different partition/batch shapes of the same data must snapshot
# to identical bits, equal to the serial binned sum) plus a 5-second
# mini load test that fails below 100k deposits/sec or on any bit
# mismatch against the offline-recomputed exact sum. Regressions in
# the recorded BENCH_serve.json are gated separately, e.g.
# `go run ./cmd/benchjson -compare -threshold 15 old.json BENCH_serve.json`.
serve-check:
	$(GO) test -v -run TestServeCheck ./internal/aggsrv -servecheck

# calibrate-quick measures and checks a host calibration in seconds:
# a small-envelope host sweep (cmd/calibrate -quick), an immediate
# drift check of the written artifact (accuracy probes re-derive their
# cell seeds and must match bitwise; cost probes get the default 4x
# noise allowance), then cleanup. A full calibration is
# `go run ./cmd/calibrate -out host.reprocal`.
calibrate-quick:
	$(GO) run ./cmd/calibrate -quick -out .calibrate-quick.reprocal
	$(GO) run ./cmd/calibrate -check .calibrate-quick.reprocal
	rm -f .calibrate-quick.reprocal

bench:
	$(GO) test -bench=. -benchmem

# bench-json records the grid sweep benchmarks, the batch
# kernel benchmarks, the speculative selector benchmarks (two-pass
# select-then-sum vs fused single pass vs fused + decision cache, plus
# the isolated Decide step with cache hit rates; the anchored pattern
# keeps BenchmarkBoundsPolicyDecide in BENCH_bounds only), and the binned
# reproducible engine's headline ratios (vs superacc, two-pass PR, and
# the ST kernel floor), plus the bound-estimator costs (BENCH_bounds:
# ComputeBounds per plan and per-policy decide cost with each pick's
# cost rank) and the collective schedules (BENCH_mpirt: wall-clock per
# topology at 16..10^4 simulated ranks with the closed-form model cost
# reported alongside as the modelcost metric; -benchtime 1x because one
# iteration is a full world run; the warm-World rows run 300 Runs each,
# so their ns/op and allocs/op are per-Run averages rather than one
# Run's), and the aggregation
# service (BENCH_serve: the server-side steady-state deposit path with
# its 0 allocs/op pin, plus end-to-end TCP throughput across the
# clients {1,16,256} × batch {1,64,4096} grid with deposits/s and
# p50/p99 flush-barrier latency; gate with -threshold 15) as
# machine-readable artifacts (compared across
# PRs, e.g. `go run ./cmd/benchjson -compare old.json BENCH_kernels.json`,
# or gated: `go run ./cmd/benchjson -compare -threshold 10 old new`).
# The kernel, selector and binned lines run each benchmark five times
# (-count 5), and benchjson records the median of the five, so one
# noisy run on a shared host does not move the recorded numbers.
bench-json:
	$(GO) test ./internal/grid -run '^$$' -bench Sweep -benchmem | $(GO) run ./cmd/benchjson > BENCH_sweep.json
	$(GO) test ./internal/kernel -run '^$$' -bench Fold -benchmem -count 5 | $(GO) run ./cmd/benchjson > BENCH_kernels.json
	$(GO) test ./internal/selector -run '^$$' -bench '^Benchmark(SelectSum|Decide)$$' -benchmem -count 5 | $(GO) run ./cmd/benchjson > BENCH_selector.json
	$(GO) test ./internal/kernel -run '^$$' -bench Binned -benchmem -count 5 | $(GO) run ./cmd/benchjson > BENCH_binned.json
	$(GO) test ./internal/selector -run '^$$' -bench Bounds -benchmem | $(GO) run ./cmd/benchjson > BENCH_bounds.json
	{ $(GO) test ./internal/mpirt -run '^$$' -bench '^BenchmarkCollective(Vector)?$$' -benchtime 1x; \
	  $(GO) test ./internal/mpirt -run '^$$' -bench '^BenchmarkCollectiveWarm$$' -benchtime 300x; } | $(GO) run ./cmd/benchjson > BENCH_mpirt.json
	$(GO) test ./internal/aggsrv -run '^$$' -bench 'DepositPath|Serve' -benchmem -benchtime 0.3s | $(GO) run ./cmd/benchjson > BENCH_serve.json
	@cat BENCH_sweep.json BENCH_kernels.json BENCH_selector.json BENCH_binned.json BENCH_bounds.json BENCH_mpirt.json BENCH_serve.json

artifacts:
	$(GO) run ./cmd/redbench -out results-quick

clean:
	rm -rf results-quick results-full
