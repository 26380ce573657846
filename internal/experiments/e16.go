package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	RegisterWall("e16", E16ShardScaling)
}

// E16ShardScaling is the shard-scaling experiment: the many-pair flow
// matrix (1k/10k flows over 8 disjoint pairs, 100k with Config.Long)
// run on the sequential simulator and on the sharded engine at 1, 2
// and 4 shards, measuring events/sec and the speedup of each shard
// count over sharded:1 — while asserting that every backend produced a
// byte-identical workload report. The determinism contract is what
// makes the speedup claim honest: the parallel engine is only faster
// at computing the exact same answer.
//
// E16 is a wall-clock experiment (RegisterWall): the speedup column
// varies by machine, so it never joins RunAll or BENCH_metrics.json.
// Its deterministic rows and timing land in BENCH_perf.json's scaling
// sections, where benchreport -check gates the shards=4 ratio against
// the committed baseline (scaled by NumCPU, so single-core runners
// are not asked for parallelism the hardware cannot provide).
// cfg.Long widens the flow axis to the 100k point.
func E16ShardScaling(cfg Config) *Result {
	res := &Result{
		ID:    "E16",
		Title: "shard scaling: events/sec and speedup vs shard count, byte-identical reports",
		Header: []string{"flows", "backend", "shards", "completed", "events",
			"wall-ms", "events/sec", "speedup", "identical"},
	}
	flowCounts := workload.ScalingFlows
	if cfg.Long {
		flowCounts = workload.ScalingFlowsLong
	}
	rows, timings := workload.Scaling(cfg.Seed, flowCounts, workload.ScalingShards)
	byFlows := make(map[int]workload.ScalingRow, len(rows))
	for _, r := range rows {
		byFlows[r.Flows] = r
	}
	reg := metrics.New()
	bad := 0
	for _, t := range timings {
		det := byFlows[t.Flows]
		backend := t.Backend
		shards := fmt.Sprintf("%d", t.Shards)
		if t.Shards == 0 {
			shards = "-" // the sequential oracle
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", t.Flows), backend, shards,
			fmt.Sprintf("%d/%d", det.Completed, t.Flows),
			fmt.Sprintf("%d", det.Events),
			fmt.Sprintf("%d", t.WallNs/1e6),
			fmt.Sprintf("%.0f", t.EventsPerSec),
			fmt.Sprintf("%.2fx", t.Speedup),
			fmt.Sprintf("%v", det.Identical),
		})
		if !det.Identical || det.Completed != t.Flows || det.Violations > 0 {
			bad++
			res.Rows[len(res.Rows)-1][3] = fmt.Sprintf("error: completed %d/%d identical=%v",
				det.Completed, t.Flows, det.Identical)
		}
		sc := reg.Scope(fmt.Sprintf("f%d", t.Flows)).Sub(fmt.Sprintf("s%d", t.Shards))
		sc.Gauge("completed").Set(int64(det.Completed))
		sc.Gauge("wall_ms").Set(t.WallNs / 1e6)
		sc.Gauge("speedup_x100").Set(int64(t.Speedup * 100))
	}
	res.Metrics = reg.Snapshot()
	res.Notes = append(res.Notes,
		fmt.Sprintf("host has %d CPU(s), GOMAXPROCS %d — speedup is bounded by min(shards, cores); ratios near 1.0 on a single-core host measure sharding overhead, not a broken engine",
			runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"every cell's workload report is byte-identical across the sequential simulator and all shard counts (the 'identical' column) — the conservative-lookahead merge rule at work",
		fmt.Sprintf("flow axis %v over %d disjoint pairs; the 100k point runs only in the scheduled long soak (-long)", flowCounts, workload.ScalingPairs))
	if bad > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d cells failing", bad))
	}
	return res
}
