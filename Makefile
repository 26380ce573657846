GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build test race race-shard vet lint docs fuzz fuzz-pool fuzz-schedule bench bench-smoke soak overlay-soak soak-long verify report perf perfcheck determinism pardet clean

all: build

build:
	$(GO) build ./...

# test/race run -short: the per-PR pipeline skips the scheduled long
# soaks (the 100k-flow E16 matrix), which only the weekly workflow
# runs (see soak-long).
test:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# race-shard is the concurrent multi-shard soak for the race detector:
# the sharded-engine tests plus a full sharded experiment sweep, so
# -race covers the cross-shard mailbox hand-off and barrier paths
# under real workloads, not just unit tests.
race-shard:
	$(GO) test -race -run Sharded ./internal/netsim ./internal/transport/harness ./internal/workload
	$(GO) run -race ./cmd/runreport -backend sharded:4 -o /dev/null

vet:
	$(GO) vet ./...

# lint first fails on any file `gofmt -l .` lists (the formatting gate
# needs nothing but the toolchain), then runs staticcheck when it is on
# PATH (CI installs the pinned $(STATICCHECK_VERSION)); locally that
# half degrades to a notice instead of failing, so offline checkouts
# still build. staticcheck.conf layers the documentation rules (ST1000
# package comments, ST1020 exported doc style) on top of the default
# checks.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "lint: gofmt -l . lists unformatted files:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# docs is the documentation gate: an offline markdown link check
# (cmd/docscheck, no network). Walk mode covers every root *.md,
# everything under docs/, and each example's README.md — new docs are
# checked without touching this target.
docs:
	$(GO) run ./cmd/docscheck

# fuzz gives the stuffing round-trip spec a brief randomized workout;
# run with a longer -fuzztime for a real campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStuffRoundTrip -fuzztime 5s ./internal/stuffing

# fuzz-pool asserts the pooled (reused-writer) stuffing path stays
# byte-identical to the allocating one.
fuzz-pool:
	$(GO) test -run '^$$' -fuzz FuzzStuffPooledParity -fuzztime 5s ./internal/stuffing

# fuzz-schedule runs the compositional fault-schedule fuzzer briefly:
# random healing fault schedules through both TCP stacks under the
# cross-stack differential oracle (CI gives it 60s; a real campaign is
# `go run ./cmd/fuzzdrive -seeds N`).
fuzz-schedule:
	$(GO) test -run '^$$' -fuzz FuzzFaultSchedule -fuzztime 5s ./internal/fuzzer

# bench runs every experiment benchmark exactly once — a full E1-E14
# reproduction sweep through the same code path as cmd/benchreport.
bench:
	$(GO) test -bench=E -benchtime=1x .

# bench-smoke builds and tests the repository benchmark (bench/, its
# own module, which `go build ./...` and `go test ./...` do not reach)
# against this tree: every workload at 1% scale, ~3 s. It is what
# catches an internal API change that would break `bash bench/run.sh`.
bench-smoke:
	$(GO) test -C bench ./...

# soak is the E15 backend soak: the 10/100-flow workload matrix on
# both TCP stacks over the real-time backends (in-process channels and
# loopback UDP). Wall-clock, so it never touches BENCH_metrics.json;
# where loopback sockets are forbidden the udp cells skip gracefully.
soak:
	$(GO) run ./cmd/benchreport -e e15

# overlay-soak is the E13 wall-clock companion: the overlay churn
# matrix (all three tiers, clean + churn scenarios) on the real-time
# backends, invariants unchanged from the simulated E13 cells. Like
# soak it degrades gracefully where loopback sockets are forbidden.
overlay-soak:
	$(GO) run ./cmd/benchreport -e e13soak

# soak-long is the scheduled E16 long soak: the 100k-flow scaling
# matrix on every backend (weekly / workflow_dispatch territory —
# minutes of wall clock per backend; the per-PR pipeline skips it via
# -short).
soak-long:
	E16_LONG=1 $(GO) test -run TestScalingLongSoak -timeout 90m ./internal/workload
	$(GO) run ./cmd/benchreport -e e16 -long

# verify is the PR gate: static checks, the full suite under the race
# detector, short fuzz passes over the bit-stuffing spec, the pooled
# parity target and the fault-schedule differential oracle, one pass
# of the experiment benchmarks, the benchmark module's smoke test, the
# parallel-determinism matrix and the perf gate against the checked-in
# baseline.
verify: vet lint docs race race-shard fuzz fuzz-pool fuzz-schedule bench bench-smoke pardet perfcheck

# report regenerates BENCH_metrics.json, the machine-readable run
# report over E1-E14 (deterministic: same seed, same bytes).
report:
	$(GO) run ./cmd/runreport

# perf regenerates BENCH_perf.json: the E11 flow-scaling matrix, the
# E12 controller bake-off, the E16 shard-scaling matrix and the E15
# backend soak plus wall-clock throughput (the timing, scaling_timing
# and soak sections are the parts of the repo's reports that
# legitimately vary between machines).
perf:
	$(GO) run ./cmd/benchreport -perf BENCH_perf.json

# perfcheck is the perf-regression gate: rerun the E11 matrix, the E12
# bake-off and the E16 scaling matrix, failing if the deterministic
# rows drift from BENCH_baseline.json, if allocs/event regresses
# beyond the tolerance, or if the E16 shards=4 events/sec ratio
# collapses relative to the baseline (capped at NumCPU, so single-core
# runners are only held to the sharding-overhead floor).
perfcheck:
	$(GO) run ./cmd/benchreport -check BENCH_baseline.json

# pardet is the parallel-determinism matrix, the same gate the CI job
# runs: regenerate the run report on the sharded backend at every
# GOMAXPROCS × shard-count combination and byte-compare each output
# against the committed sequential BENCH_metrics.json.
pardet:
	@set -e; for p in 1 2 8; do for s in 1 4; do \
		echo "pardet: GOMAXPROCS=$$p sharded:$$s"; \
		GOMAXPROCS=$$p $(GO) run ./cmd/runreport -backend sharded:$$s -o BENCH_parallel.json; \
		cmp BENCH_metrics.json BENCH_parallel.json; \
	done; done; rm -f BENCH_parallel.json

# determinism regenerates the run report twice and fails on any byte
# drift from the committed BENCH_metrics.json — the same gate CI runs.
# Explicitly pinned to the sim backend: runreport only executes the
# deterministic registry (wall-clock experiments like E15 are
# registered via RegisterWall and excluded).
determinism:
	$(GO) run ./cmd/runreport
	git diff --exit-code BENCH_metrics.json
	$(GO) run ./cmd/runreport
	git diff --exit-code BENCH_metrics.json

clean:
	rm -f BENCH_metrics.json BENCH_perf.json BENCH_parallel.json
