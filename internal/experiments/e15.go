package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport/harness"
	"repro/internal/workload"
)

// e15Flows is the E15 flow axis: the E11 matrix's 10- and 100-flow
// points. The 1000-flow point is omitted — real-time backends pace the
// arrival schedule on the wall clock, and a thousand staggered flows
// would turn a CI gate into a minutes-long soak.
var e15Flows = []int{10, 100}

// E15BackendSoak runs the backend soak: the E11 10/100-flow workload
// matrix on both TCP stacks over the real-time backends — the
// in-process channel network and loopback UDP sockets — with the
// engine, the invariant watchdog and the metrics registry unchanged
// from the simulated runs. Every cell must complete all flows with
// zero watchdog violations; the row payload is wall-clock goodput and
// event throughput.
//
// E15 is a wall-clock experiment (a wall row of the experiment table):
// it never joins RunAll, so BENCH_metrics.json — the byte-determinism
// gate — stays a pure function of the seed. Its numbers are printed,
// not committed.
func E15BackendSoak(cfg Config) *Result {
	res := &Result{
		ID:    "E15",
		Title: "backend soak: the E11 flow matrix on real-time backends (chan, loopback udp)",
		Header: []string{"backend", "stack", "flows", "completed", "failed",
			"setup-ms", "wall-ms", "goodput-bps", "events/sec", "violations"},
	}
	backends := []string{harness.BackendChan, harness.BackendUDP}
	udpSkipped := !harness.UDPAvailable()
	if udpSkipped {
		// Degrade, don't fail: sandboxes without loopback sockets still
		// exercise the chan backend.
		backends = backends[:1]
	}
	reg := metrics.New()
	bad := 0
	for _, backend := range backends {
		for _, flows := range e15Flows {
			for _, kind := range e11Kinds {
				// The E11 engine and invariants, with arrival windows
				// squeezed from seconds to fractions of a second so a
				// cell costs about a second of wall clock instead of a
				// simulated quarter hour.
				t0 := time.Now()
				r := workload.Run(workload.Config{
					Seed: cfg.Seed, Backend: backend, Flows: flows, Client: kind, Server: kind,
					MinSize: 2 * 1024, MaxSize: 16 * 1024,
					OnPeriod: 250 * time.Millisecond, OffPeriod: 50 * time.Millisecond,
					Cycles: 2,
					Budget: 30 * time.Second, // wall-clock bound on real-time backends
				})
				wall := time.Since(t0)
				var goodput uint64 // delivered bits over wall time
				var eventsPerSec float64
				if s := wall.Seconds(); s > 0 {
					goodput = uint64(float64(r.BytesDelivered*8) / s)
					eventsPerSec = float64(r.Events) / s
				}
				completed := fmt.Sprintf("%d", r.Completed)
				if len(r.Violations) > 0 || r.Completed != flows {
					bad++
					completed = fmt.Sprintf("error: completed %d/%d", r.Completed, flows)
				}
				res.Rows = append(res.Rows, []string{
					backend, r.Stack,
					fmt.Sprintf("%d", flows),
					completed,
					fmt.Sprintf("%d", r.Failed),
					fmt.Sprintf("%.1f", r.Setup.Seconds()*1e3),
					fmt.Sprintf("%d", wall.Milliseconds()),
					fmt.Sprintf("%d", goodput),
					fmt.Sprintf("%.0f", eventsPerSec),
					fmt.Sprintf("%d", len(r.Violations)),
				})
				sc := reg.Scope(backend).Sub(r.Stack).Sub(fmt.Sprintf("f%d", flows))
				sc.Gauge("completed").Set(int64(r.Completed))
				sc.Gauge("violations").Set(int64(len(r.Violations)))
				sc.Gauge("wall_ms").Set(wall.Milliseconds())
			}
		}
	}
	res.Metrics = reg.Snapshot()
	res.Notes = append(res.Notes,
		"setup-ms is the backend clock once the world was built and routed (part of wall-ms); the rest of wall-ms is the flows",
		"wall-clock numbers: goodput and events/sec vary by machine, so this table is printed and never part of BENCH_metrics.json; the gated wall-clock measurement is bench/ (BENCHMARK.json)",
		fmt.Sprintf("%d cells, %d failing; every cell asserts full completion and zero watchdog violations over the unchanged E11 engine", len(res.Rows), bad))
	if udpSkipped {
		res.Notes = append(res.Notes, "udp backend unavailable here (no loopback sockets) — udp cells skipped, chan cells still asserted")
	}
	return res
}
