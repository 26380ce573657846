package experiments

import (
	"fmt"
	"time"

	"repro/internal/transport/harness"
	"repro/internal/workload"
)

// e16Pairs is the world shape: flows spread round-robin over this
// many disjoint client/server pairs, so a sharded backend has real
// node-level parallelism to exploit (pairs map onto shards; cut links
// appear only where a shard boundary falls inside a pair).
const e16Pairs = 8

// e16Flows is the flow axis — the 1k and 10k points. The 100k point
// only runs in the scheduled long soak (TestScalingLongSoak in
// internal/workload): on one CPU it is minutes of wall clock per
// backend.
var e16Flows = []int{1_000, 10_000}

// E16ShardScaling is the shard-scaling experiment's deterministic
// half: the many-pair flow matrix (1k and 10k short flows over 8
// disjoint pairs) on the backend it is given. A parallel simulator is
// only trustworthy if parallelism is unobservable, so the rows and the
// per-flow-count snapshots sit in BENCH_metrics.json like every other
// experiment's, and the determinism gate — the same manifest on sim
// and on sharded:{1,4} at GOMAXPROCS 1, 2 and 8 — is what says the
// sharded engine computed the exact same answer.
//
// How fast each shard count computes it is a wall-clock question and
// belongs to the repository benchmark: bench/'s churn workload is this
// shape, and reports sharded.flows_per_s, sharded.speedup and
// sharded.shard1_overhead_ratio with a completion-stopped clock.
func E16ShardScaling(cfg Config) *Result {
	res := &Result{
		ID:    "E16",
		Title: "shard scaling: 1k/10k short flows over 8 disjoint pairs, byte-identical on every backend",
		Header: []string{"flows", "pairs", "completed", "bytes",
			"fct-p50", "fct-p99", "fairness", "violations", "events", "makespan"},
	}
	for _, flows := range e16Flows {
		// Transfers are kept small (1–4 KiB) so the event count, not
		// the byte count, dominates: E16 exercises the event loop, not
		// the congestion controllers.
		r := workload.Run(workload.Config{
			Seed: cfg.Seed, Backend: cfg.Backend, Flows: flows,
			Pairs: e16Pairs, Hops: 2,
			Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
			MinSize: 1 * 1024, MaxSize: 4 * 1024,
			Budget: time.Hour,
		})
		completed := fmt.Sprintf("%d/%d", r.Completed, flows)
		if r.Completed != flows || len(r.Violations) > 0 {
			completed = "error: completed " + completed
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", flows),
			fmt.Sprintf("%d", r.Pairs),
			completed,
			fmt.Sprintf("%d", r.BytesDelivered),
			r.FCTp50.Truncate(time.Millisecond).String(),
			r.FCTp99.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%.4f", r.Fairness),
			fmt.Sprintf("%d", len(r.Violations)),
			fmt.Sprintf("%d", r.Events),
			r.Makespan.Truncate(time.Millisecond).String(),
		})
		res.fold(fmt.Sprintf("flows%05d", flows), r.Metrics)
	}
	res.Notes = append(res.Notes,
		"transfers are 1-4 KiB, so per-flow work (dial/accept, instruments, CM timers, teardown) dominates and the data path does little",
		"this table and its digests are identical on sim and sharded:N at every GOMAXPROCS (make determinism); events/sec and speedup per shard count are bench/'s sharded.* rows on the churn workload")
	return res
}
