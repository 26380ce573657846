package experiments

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// E11 self-registers: with the registry in place, a new experiment is
// this one call — no switch in either cmd tool to extend.
func init() {
	Register("e11", E11FlowScaling)
}

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
	for _, cell := range workload.MatrixOn(cfg.Backend, seed, workload.MatrixFlows, workload.MatrixKinds) {
		r := cell.Report
		totalViolations += len(r.Violations)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", cell.Flows),
			r.Stack,
			fmt.Sprintf("%d/%d", r.Completed, r.Flows),
			fmt.Sprintf("%.2fMbps", float64(r.GoodputBps)/1e6),
			r.FCTp50.Truncate(time.Millisecond).String(),
			r.FCTp99.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%.4f", r.Fairness),
			fmt.Sprintf("%d", len(r.Violations)),
			r.Makespan.Truncate(time.Millisecond).String(),
		})
		res.fold(fmt.Sprintf("flows%04d/%s", cell.Flows, r.Stack), r.Metrics)
	}
	if cfg.TraceDir != "" {
		for _, kind := range workload.MatrixKinds {
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
