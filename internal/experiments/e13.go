package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/transport/harness"
)

func init() {
	Register("e13", E13Overlay)
	RegisterWall("e13soak", E13OverlaySoak)
}

// e13Stacks is the E13 stack axis: the overlay tiers run unchanged on
// both transport implementations — the application layer is the final
// customer of the fungibility argument, so it must not be able to
// tell the stacks apart except through the metrics.
func e13Stacks() []harness.Kind {
	return []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}
}

// e13Row renders one overlay cell in the E13 table layout.
func e13Row(sc string, kind harness.Kind, r *overlay.RunResult) []string {
	status := "ok"
	if len(r.Violations) > 0 {
		status = "error:" + r.Violations[0]
	}
	return []string{
		sc, kind.String(), string(r.Tier),
		fmt.Sprintf("%d/%d/%d", r.Issued, r.Resolved, r.Missed),
		fmt.Sprintf("%d/%d", r.HopP50, r.HopP99),
		r.LatP50.Truncate(time.Microsecond).String(),
		r.LatP99.Truncate(time.Microsecond).String(),
		r.ConvergeP50.Truncate(time.Microsecond).String(),
		r.ConvergeMax.Truncate(time.Microsecond).String(),
		fmt.Sprintf("%.1f", r.MsgsPerOp),
		fmt.Sprintf("%d", r.Retries),
		fmt.Sprintf("%d", r.DupReplies),
		fmt.Sprintf("%.3f", r.MissRate()),
		status,
		r.Elapsed.Truncate(time.Millisecond).String(),
	}
}

// e13Header is the column layout shared by E13 and its soak variant.
func e13Header() []string {
	return []string{"scenario", "stack", "tier", "ops(i/r/m)", "hops(p50/p99)",
		"lat-p50", "lat-p99", "conv-p50", "conv-max", "msgs/op",
		"retries", "dups", "miss-rate", "status", "time"}
}

// E13Overlay runs the application-layer overlay matrix: the three
// overlay tiers (request/response RPC, the Kademlia-style DHT,
// epidemic gossip) on both transport stacks under the four fault
// scenarios of the cluster ring (clean, bursty loss, healed
// partition, member churn). Every cell asserts the tier's invariants
// through the watchdog — replies byte-correct and delivered exactly
// once, stored values retrievable, rumors fully disseminated after
// heal — and re-checks the per-sublayer contracts on the sublayered
// stack. The tabulated payload is what §4's overlay story needs:
// lookup hop counts, call latency, gossip convergence time and
// messages per operation, per stack.
//
// It honors cfg.Backend: run on "sharded[:N]" the Result must be
// byte-identical to the sequential run, which makes E13 — timer-heavy,
// all-pairs traffic on a ring — the sharpest experiment-level leg of
// the determinism gate's sharded cells.
func E13Overlay(cfg Config) *Result {
	res := &Result{
		ID:     "E13",
		Title:  "overlay workloads: DHT, gossip, RPC over both stacks under faults",
		Header: e13Header(),
	}
	idx := int64(0)
	viol := 0
	for _, sc := range overlay.Scenarios(8) {
		for _, kind := range e13Stacks() {
			for _, tier := range overlay.Tiers() {
				idx++
				reg := metrics.New()
				r := overlay.Run(overlay.RunConfig{
					Seed: cfg.Seed + idx, Backend: cfg.Backend,
					Kind: kind, Tier: tier, Scenario: sc, Metrics: reg,
				})
				viol += len(r.Violations)
				res.Rows = append(res.Rows, e13Row(sc.Name, kind, r))
				res.fold(fmt.Sprintf("%s/%s/%s", sc.Name, kind, tier), r.Snap)
			}
		}
	}
	res.Notes = append(res.Notes,
		"tiers share one node runtime (versioned codec, deadlines, jittered retries, duplicate suppression) over transport.Conn; state machines run on backend timers only, so every cell is deterministic and engine-independent",
		fmt.Sprintf("24 cells (4 scenarios x 2 stacks x 3 tiers), %d violations; healing scenarios require every RPC/DHT op resolved and every rumor disseminated by the end of the budget", viol))
	return res
}

// E13OverlaySoak is the wall-clock companion (RegisterWall: never in
// RunAll or BENCH_metrics.json): the churn and clean scenarios across
// all three tiers on the real-time backends — in-process channels
// always, loopback UDP where sockets exist — with the watchdog and
// invariants unchanged from the simulated runs. `make soak` and the CI
// backend-soak job run exactly this.
func E13OverlaySoak(cfg Config) *Result {
	res := &Result{
		ID:     "E13SOAK",
		Title:  "overlay backend soak: churn matrix on real-time backends (chan, loopback udp)",
		Header: append([]string{"backend"}, e13Header()...),
	}
	backends := []string{harness.BackendChan, harness.BackendUDP}
	udpSkipped := false
	if !harness.UDPAvailable() {
		backends = backends[:1]
		udpSkipped = true
	}
	scenarios := overlay.Scenarios(8)
	idx := int64(0)
	viol := 0
	for _, backend := range backends {
		for _, sc := range []overlay.Scenario{scenarios[0], scenarios[3]} { // clean, churn
			for _, tier := range overlay.Tiers() {
				idx++
				r := overlay.Run(overlay.RunConfig{
					Seed: cfg.Seed + idx, Backend: backend,
					Kind: harness.KindSublayeredNative, Tier: tier, Scenario: sc,
					Metrics: metrics.New(),
				})
				viol += len(r.Violations)
				res.Rows = append(res.Rows, append([]string{backend}, e13Row(sc.Name, harness.KindSublayeredNative, r)...))
			}
		}
	}
	res.Notes = append(res.Notes,
		"wall-clock cells: latencies and convergence vary by machine, so this table never joins BENCH_metrics.json; the invariants (zero violations, full resolution under churn) hold regardless",
		fmt.Sprintf("%d cells, %d violations", idx, viol))
	if udpSkipped {
		res.Notes = append(res.Notes, "udp backend unavailable here (no loopback sockets) — udp cells skipped, chan cells still asserted")
	}
	return res
}
