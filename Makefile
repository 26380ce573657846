GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build test race race-shard vet lint docs fuzz fuzz-pool fuzz-schedule bench-smoke soak soak-long verify report determinism clean

all: build

build:
	$(GO) build ./...

# test/race run -short: the per-PR pipeline skips the scheduled long
# soak (the 100k-flow E16 identity sweep), which only the weekly
# workflow runs (see soak-long).
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

# docs is the documentation gate: an offline check (cmd/docscheck, no
# network) of every markdown link and of every `make <target>` the
# docs tell a reader to run, against .PHONY above. Walk mode covers
# every root *.md, everything under docs/, and each example's
# README.md — new docs are checked without touching this target.
docs:
	$(GO) run ./cmd/docscheck

# fuzz gives the stuffing round-trip spec, the send buffer (an
# operation stream against its copy-down reference model), the
# simulator's event store (timer and link posts, stop, step and
# run-to-bound against a sorted list), the reassembly buffer (an
# arrival stream against its map-based reference model) and three
# parsers of hostile wire bytes (the network datagram: no panic, exact
# re-marshal; the sublayered header and the RFC 793 header: pooled
# decoder against the allocating one, and for RFC 793 an exact
# re-marshal) a brief randomized workout each; run with a longer
# -fuzztime for a real campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzStuffRoundTrip -fuzztime 5s ./internal/stuffing
	$(GO) test -run '^$$' -fuzz FuzzSendBuffer -fuzztime 5s ./internal/transport/seg
	$(GO) test -run '^$$' -fuzz FuzzEventStore -fuzztime 5s ./internal/netsim
	$(GO) test -run '^$$' -fuzz FuzzReassembly -fuzztime 5s ./internal/transport/seg
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalDatagram -fuzztime 5s ./internal/network
	$(GO) test -run '^$$' -fuzz FuzzSubHeader -fuzztime 5s ./internal/tcpwire
	$(GO) test -run '^$$' -fuzz FuzzTCPHeader -fuzztime 5s ./internal/tcpwire
	$(GO) test -run '^$$' -fuzz FuzzOverlayFrame -fuzztime 5s ./internal/overlay

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

# bench-smoke builds and tests the repository benchmark (bench/, its
# own module, which `go build ./...` and `go test ./...` do not reach)
# against this tree: every workload at 1% scale, ~3 s. It is what
# catches an internal API change that would break `bash bench/run.sh`.
bench-smoke:
	$(GO) test -C bench ./...

# soak runs the two wall-clock soaks on the real-time backends
# (in-process channels and loopback UDP): E15, the 10/100-flow workload
# matrix on both TCP stacks, and E13's companion, the overlay churn
# matrix (all three tiers, clean + churn scenarios) with invariants
# unchanged from the simulated E13 cells. Wall-clock, so neither
# touches BENCH_metrics.json; where loopback sockets are forbidden the
# udp cells skip gracefully.
soak:
	$(GO) run ./cmd/runreport -o - -format text -e e15,e13soak

# soak-long is the scheduled E16 long soak: the 1k/10k/100k-flow
# reports byte-identical on sim and sharded:{1,2,4} (weekly /
# workflow_dispatch territory — minutes of wall clock per backend; the
# per-PR pipeline skips it via -short).
soak-long:
	E16_LONG=1 $(GO) test -run TestScalingLongSoak -timeout 90m ./internal/workload

# verify is the PR gate: static checks, the full suite under the race
# detector, short fuzz passes over the bit-stuffing spec, the pooled
# parity target and the fault-schedule differential oracle, the
# benchmark module's smoke test and the determinism gate. Performance
# is not gated here: it is measured by `bash bench/run.sh`
# (BENCHMARK.json), paired against the parent commit.
verify: vet lint docs race race-shard fuzz fuzz-pool fuzz-schedule bench-smoke determinism

# report re-records BENCH_metrics.json, the run-report manifest over
# the deterministic experiments (E1-E14, E16): every table plus one sample count and SHA-256 per scenario
# (deterministic: same seed, same bytes). It is the only target that
# writes the file; `go run ./cmd/runreport -format text -o -` prints
# the samples behind the digests.
report:
	$(GO) run ./cmd/runreport

# determinism is the byte-determinism gate, the same one CI runs:
# regenerate the manifest into a temp file on the sequential simulator
# (twice) and on the sharded backend at every GOMAXPROCS × shard-count
# combination, and diff each against the committed BENCH_metrics.json.
# The sharded cells make it the parallel-correctness oracle as well.
# It never writes a tracked file, so it cannot pass by re-recording
# what it checks. runreport only executes the deterministic registry
# (the wall-clock soaks, e13soak and E15, are registered via
# RegisterWall and excluded). A diverging cell is named before its diff, each drifted
# digest line carries its experiment and scenario, and that cell's
# per-sample dump is left in determinism-divergent.txt to diff against
# the same dump from a good tree.
determinism:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/runreport" ./cmd/runreport; \
	cell() { \
		echo "cell: GOMAXPROCS=$${1:-default} $$2"; \
		GOMAXPROCS=$$1 "$$tmp/runreport" -backend $$2 -o "$$tmp/manifest.json" >/dev/null; \
		if ! diff BENCH_metrics.json "$$tmp/manifest.json"; then \
			GOMAXPROCS=$$1 "$$tmp/runreport" -backend $$2 -format text -o determinism-divergent.txt; \
			exit 1; \
		fi; \
	}; \
	cell "" sim; cell "" sim; \
	for procs in 1 2 8; do for shards in 1 4; do cell $$procs sharded:$$shards; done; done

# clean removes what building, testing and the gates leave behind —
# never the committed goldens the gates compare against.
clean:
	rm -rf .bench_build determinism-divergent.txt
	find . \( -name '*.test' -o -name '*.prof' \) -type f -delete
