package experiments

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/transport/harness"
	"repro/internal/workload"
)

// e11Kinds is the stack axis E11, E12 and E15 share: both
// implementations, native wire format each, driven through the
// identical engine code path.
var e11Kinds = []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}

// e11Flows is the flow-scaling axis.
var e11Flows = []int{10, 100, 1000}

// E11FlowScaling is the many-flow scaling sweep: 10, 100 and 1,000
// concurrent flows through each stack over one shared rate-limited
// path, all inside one deterministic simulator per cell. The workload
// engine sees only the transport.Stack interface, so both stacks run
// the identical arrival schedule, transfer sizes and invariant checks;
// the table compares aggregate goodput, the completion-time tail and
// Jain fairness as the flow count scales 100×.
//
// With cfg.TraceDir set, one extra small traced cell (10 flows) runs
// per stack after the matrix and its flight-recorder dump lands in the
// directory ("e11-flows10-<stack>.trace.json") — a worked example of
// many concurrent causal chains interleaving through one bottleneck.
// The returned Result never changes with tracing.
func E11FlowScaling(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:    "E11",
		Title: "flow scaling: 10/100/1000 concurrent flows through either stack",
		Header: []string{"flows", "stack", "completed", "goodput",
			"fct-p50", "fct-p99", "fairness", "violations", "makespan"},
	}
	totalViolations := 0
	// Every cell is byte-identical on "sim" and "sharded[:N]": E11 run
	// through a sharded world is the experiment-level leg of the
	// determinism gate's sharded cells.
	for _, flows := range e11Flows {
		for _, kind := range e11Kinds {
			r := workload.Run(workload.Config{Seed: seed, Backend: cfg.Backend, Flows: flows, Client: kind, Server: kind})
			totalViolations += len(r.Violations)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%d", flows),
				r.Stack,
				fmt.Sprintf("%d/%d", r.Completed, r.Flows),
				fmt.Sprintf("%.2fMbps", float64(r.GoodputBps)/1e6),
				r.FCTp50.Truncate(time.Millisecond).String(),
				r.FCTp99.Truncate(time.Millisecond).String(),
				fmt.Sprintf("%.4f", r.Fairness),
				fmt.Sprintf("%d", len(r.Violations)),
				r.Makespan.Truncate(time.Millisecond).String(),
			})
			res.fold(fmt.Sprintf("flows%04d/%s", flows, r.Stack), r.Metrics)
		}
	}
	if cfg.TraceDir != "" {
		for _, kind := range e11Kinds {
			col := trace.NewCollector(trace.Options{RingCap: 1024, DoneCap: 128})
			workload.Run(workload.Config{
				Seed: seed, Flows: 10, Client: kind, Server: kind, Tracer: col,
			})
			writeTraceDump(cfg.TraceDir, fmt.Sprintf("e11-flows10-%s.trace.json", kind), col)
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("invariant watchdog: %d violations across the matrix — every delivered stream equals the sent stream at every scale on both stacks", totalViolations),
		"the engine drives both implementations through the transport.Stack interface only: one code path, six cells",
		"what the matrix costs in wall-clock terms (events/sec, allocs/event, sublayered vs monolithic) is measured by the repository benchmark, `bash bench/run.sh`")
	return res
}
