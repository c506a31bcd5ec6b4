# Build/test/bench entry points. CI runs the same targets.

# The engine microbenchmark suite committed as the bench trajectory, run
# at the host's default GOMAXPROCS.
ASYNC_BENCH       = BenchmarkSimFlood$$|BenchmarkSimFloodFixed|BenchmarkSimFloodReset
SYNC_BENCH        = BenchmarkLockstepPulse$$
# The footprint probe is deterministic (see footprint_test.go's exact
# pins), so one iteration suffices; its last case is the million-node row.
FOOTPRINT_BENCH   = BenchmarkFootprint
BENCH_OUT         = BENCH_6.json
BENCH_NOTE       ?= engine microbenchmark suite (serial engines) plus retained-footprint probe (graphB/link, asyncB/link, syncB/node; includes the grid3d 1M-node row)

# The fault-plane sweep committed as BENCH_8.json: the synchronized BFS
# under a crash × drop × budget grid of deterministic fault schedules,
# with the delivery ledger (delivered/dropped/retrans/undeliv), the pulse
# watchdog's stall verdict, and — on crash rows — incremental cover
# repair vs from-scratch rebuild cost; see internal/bench's
# BenchmarkFaultSweep and experiment E17.
FAULT_BENCH_OUT   = BENCH_8.json
FAULT_BENCH_NOTE ?= fault-plane sweep: synchronized BFS on grid16x16 under crash×drop×budget schedules (seed 7); delivered/dropped/retrans/undeliv ledger, watchdog stall verdict, and incremental layered-cover repair vs masked rebuild cost on crash rows — repair is checked deep-equal to the rebuild before metrics are reported

# The multi-process shard sweep committed as BENCH_7.json: one flood over
# the million-node smoke graph per shard count, real worker processes,
# with the coordinator's per-window ledger (workerNs/commNs/mergeNs per
# window) as custom metrics. fixed:1 delays give full-unit lookahead
# (~300 windows); see internal/shard/bench_test.go.
SHARD_BENCH_SPEC   ?= grid3d:100x100x100
SHARD_BENCH_SHARDS ?= 1,2,4,8
SHARD_BENCH_OUT     = BENCH_7.json
SHARD_BENCH_NOTE   ?= multi-process shard sweep: flood on $(SHARD_BENCH_SPEC), K=$(SHARD_BENCH_SHARDS) worker processes over unix sockets, fixed:1 delays; per-window workerNs (critical path), commNs (barrier wait), mergeNs (coordinator) metrics — on hosts with fewer cores than K the extra processes timeshare and the comm column absorbs the oversubscription

# The state-plane overhead sweep committed as BENCH_9.json: the flood
# checkpointed at interval fractions of its event count, reporting frame
# bytes, serialization cost per checkpoint, restore cost, and the
# checkpointed run's wall-clock ratio against the uninterrupted baseline;
# the SNAP_BENCH_SPEC case is the million-node row. Every row asserts the
# round-trip invariant (restore-and-finish byte-identical to the baseline)
# before reporting; see internal/bench's BenchmarkSnapshotSweep and
# experiment E18.
SNAP_BENCH_SPEC  ?= grid3d:100x100x100
SNAP_BENCH_OUT    = BENCH_9.json
SNAP_BENCH_NOTE  ?= state-plane overhead sweep: flood checkpointed at est/8, est/2, est event intervals on grid:40x40 and er:n=500 plus a single-interval $(SNAP_BENCH_SPEC) million-node row; frameBytes, saveMsPerSnap, restoreMs, timeX vs the uninterrupted baseline — every row requires the run restored from the last checkpoint to finish byte-identical to the baseline before metrics are reported

.PHONY: build test race bench bench-shard bench-faults bench-snapshot fmt vet

build:
	go build ./...

test: build
	go test ./...

race:
	go test -race ./internal/async/ ./internal/syncrun/ ./internal/apps/ ./internal/bench/ ./internal/core/ ./internal/shard/

fmt:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi

vet:
	go vet ./...

# Separate recipe lines so a failing benchmark suite fails the target
# instead of being swallowed by a pipe (benchjson would happily emit a
# truncated document from whatever lines did arrive).
bench:
	go test -run '^$$' -bench '$(ASYNC_BENCH)' -benchmem ./internal/async/ > .bench-async.out
	go test -run '^$$' -bench '$(SYNC_BENCH)' -benchmem ./internal/syncrun/ > .bench-sync.out
	go test -run '^$$' -bench '$(FOOTPRINT_BENCH)' -benchtime 1x -timeout 30m ./internal/bench/ > .bench-footprint.out
	cat .bench-async.out .bench-sync.out .bench-footprint.out | go run ./cmd/benchjson -note "$(BENCH_NOTE)" > $(BENCH_OUT)
	rm -f .bench-async.out .bench-sync.out .bench-footprint.out
	@cat $(BENCH_OUT)

bench-faults:
	go test -run '^$$' -bench BenchmarkFaultSweep -benchtime 1x -timeout 30m ./internal/bench/ > .bench-faults.out
	cat .bench-faults.out | go run ./cmd/benchjson -note "$(FAULT_BENCH_NOTE)" > $(FAULT_BENCH_OUT)
	rm -f .bench-faults.out
	@cat $(FAULT_BENCH_OUT)

bench-shard:
	SHARD_BENCH_SPEC=$(SHARD_BENCH_SPEC) SHARD_BENCH_SHARDS=$(SHARD_BENCH_SHARDS) \
		go test -run '^$$' -bench BenchmarkShardSweep -benchtime 1x -timeout 60m ./internal/shard/ > .bench-shard.out
	cat .bench-shard.out | go run ./cmd/benchjson -note "$(SHARD_BENCH_NOTE)" > $(SHARD_BENCH_OUT)
	rm -f .bench-shard.out
	@cat $(SHARD_BENCH_OUT)

bench-snapshot:
	SNAP_BENCH_SPEC=$(SNAP_BENCH_SPEC) \
		go test -run '^$$' -bench BenchmarkSnapshotSweep -benchtime 1x -timeout 60m ./internal/bench/ > .bench-snapshot.out
	cat .bench-snapshot.out | go run ./cmd/benchjson -note "$(SNAP_BENCH_NOTE)" > $(SNAP_BENCH_OUT)
	rm -f .bench-snapshot.out
	@cat $(SNAP_BENCH_OUT)
