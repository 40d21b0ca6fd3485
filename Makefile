GO ?= go

.PHONY: all build vet test race crash crash-smoke fuzz bench-service bench-service-smoke cover serve-smoke verify

all: verify

build:
	$(GO) build ./...

# go vet, plus gofmt: any file gofmt would change fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The packages that fan work out across goroutines (sharded observation
# generation, the parallel Algorithm 1 job, the blameitd frontend/backend
# split, route generation over clouds, the world built beside the journal
# read at blameitd's start, whose test builds the binary under -race too,
# the checkpoint restored section by section) plus the localizer they call
# concurrently, the source seam (internal/ingest) the pipeline reads
# through and the BGP table built over the parallel routes, under the race
# detector.
# internal/chaos, internal/fleet and internal/server run whole and without
# -short, so this is also the 7-day heavy-profile chaos gate
# (TestChaosEndToEnd), the fleet equivalence gate
# (TestFleetMatchesCentralized) and the 7-day fleet chaos gate on the
# daemon's aggregate path (internal/server's TestFleetChaosEndToEnd).
race:
	$(GO) test -race -timeout 20m ./cmd/blameitd/ ./internal/sim/... ./internal/pipeline/... ./internal/core/... ./internal/parallel/... ./internal/ingest/... ./internal/probe/... ./internal/chaos/... ./internal/server/... ./internal/wal/... ./internal/fleet/... ./internal/topology/... ./internal/bgp/...

# The crash-safety gate, under the race detector: every WAL-layer test
# (framing, torn tails of either family, compaction killed before its
# checkpoints' fsync, between its unlinks and after them, checkpoint
# files) plus the service-level kill-injection matrix — 20 seeded
# in-process crash points, the checkpointed crash matrix on both feeds,
# past the baselines' periodic refresh, a drain flush and a chaos profile,
# each arm's closed state held to the uninterrupted one, batches pushed
# while checkpoints are cut, damaged checkpoints, a read that does not
# re-derive, 20 kill -9s against the real binary, the 2-day
# restart-under-chaos run, and the degraded-disk / corrupt-tail /
# Retry-After surfaces. Recovery must be byte-identical everywhere.
crash:
	$(GO) test -race -count=1 -timeout 20m ./internal/wal/
	$(GO) test -race -count=1 -timeout 20m -run 'TestWAL|TestCheckpoint|TestRetryAfter|TestCrashRecovery|TestRestartUnderChaos' ./internal/server/

# Shell-level kill -9 proof against real processes and a real disk: feed
# a WAL-backed blameitd three days bucket by bucket, SIGKILL it five
# times — before the first checkpoint, between the first two, and after
# compaction has unlinked the journal before the older one — and require
# the survivor to serve byte-identical reports to an uninterrupted
# in-memory control.
crash-smoke:
	bash scripts/crash_smoke.sh

# Short fuzzing sweeps over every decoder and invariant-bearing routine
# with a registered fuzz target; also a CI job. A failing input lands in
# the package's testdata/fuzz, where `go test` replays it from then on.
fuzz:
	$(GO) test -run NONE -fuzz FuzzDecodeBatches -fuzztime 20s ./internal/ingest/
	$(GO) test -run NONE -fuzz FuzzParseFloat -fuzztime 20s ./internal/ingest/
	$(GO) test -run NONE -fuzz FuzzParseInt -fuzztime 20s ./internal/ingest/
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime 20s ./internal/wal/
	$(GO) test -run NONE -fuzz FuzzParseAddr -fuzztime 10s ./internal/ipaddr/
	$(GO) test -run NONE -fuzz FuzzParsePrefix -fuzztime 10s ./internal/ipaddr/
	$(GO) test -run NONE -fuzz FuzzContainment -fuzztime 10s ./internal/ipaddr/
	$(GO) test -run NONE -fuzz FuzzCheckpoint -fuzztime 20s -fuzzminimizetime 100x ./internal/server/
	$(GO) test -run NONE -fuzz FuzzQuantileMonotonicity -fuzztime 10s ./internal/stats/
	$(GO) test -run NONE -fuzz FuzzSummarizeOrdering -fuzztime 10s ./internal/stats/
	$(GO) test -run NONE -fuzz FuzzCDFQuantileAgreement -fuzztime 10s ./internal/stats/

# The whole-service benchmark (BENCHMARK.json, benchmark/README.md) on the
# workload that exercises the journal: a real blameitd with -data-dir
# driven over HTTP, every served and recovered report held to the
# reference, a kill -9 and a timed recovery per pass. Other workloads:
# go run ./benchmark -workload raw_closed|fleet_wal_closed|paced_raw.
bench-service:
	$(GO) run ./benchmark -workload raw_wal_closed

# The benchmark contract, one second a workload: benchmark/ must compile
# against the packages it drives, every report the daemon serves must
# equal the reference replay, no operation may fail, and the traced run
# must still emit every per-layer metric BENCHMARK.json declares. Any of
# those exits non-zero here rather than in the pipeline's own run.
bench-service-smoke:
	$(GO) vet ./benchmark
	for w in raw_closed raw_wal_closed fleet_wal_closed paced_raw; do \
		$(GO) run ./benchmark -workload $$w -seconds 1 || exit 1; \
	done
	$(GO) run ./benchmark -workload raw_closed -trace 1 -seconds 1

# Coverage over every package (-short skips the multi-minute integration
# runs), printing the module total; leaves cover.out behind for
# `go tool cover -html=cover.out` or a full `go tool cover -func` listing.
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# End-to-end daemon liveness: boot blameitd, replay a one-day trace into
# it over HTTP with the tracegen loadgen, assert the read APIs answer,
# SIGTERM, and require a clean drain (exit 0).
serve-smoke:
	bash scripts/serve_smoke.sh

# The gate every change must pass: static checks, full build, full test
# suite, and the race-detector pass over the concurrent packages.
verify: vet build test race
