package experiments

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

func init() {
	Register("e16", E16ShardScaling)
}

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
	for _, flows := range workload.ScalingFlows {
		r := workload.Run(workload.ScalingConfig(cfg.Seed, cfg.Backend, flows))
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
