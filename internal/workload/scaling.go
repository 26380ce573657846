package workload

import (
	"time"

	"repro/internal/transport/harness"
)

// ScalingPairs is the E16 world shape: flows spread round-robin over
// this many disjoint client/server pairs, so a sharded backend has
// real node-level parallelism to exploit (pairs map onto shards; cut
// links appear only where a shard boundary falls inside a pair).
const ScalingPairs = 8

// ScalingFlows is the E16 flow axis — the 1k and 10k points. The 100k
// point only runs in the scheduled long soak (TestScalingLongSoak): on
// one CPU it is minutes of wall clock per backend.
var ScalingFlows = []int{1_000, 10_000}

// ScalingConfig is the workload for one E16 cell. Transfers are kept
// small (1–4 KiB) so the event count, not the byte count, dominates —
// E16 exercises the event loop, not the congestion controllers.
func ScalingConfig(seed int64, backend string, flows int) Config {
	return Config{
		Seed: seed, Backend: backend, Flows: flows,
		Pairs: ScalingPairs, Hops: 2,
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
		MinSize: 1 * 1024, MaxSize: 4 * 1024,
		Budget: time.Hour,
	}
}
