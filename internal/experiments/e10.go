package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/pcap"
	"repro/internal/trace"
	"repro/internal/transport/harness"
	"repro/internal/verify"
)

// chaosScenario is one cell of the E10 fault matrix: a named fault
// script plus the outcome the transport owes us. Scripts that heal
// must still complete the transfer; scripts that never heal must abort
// via the RD user timeout (sublayered) / MaxRexmit (monolithic) rather
// than retransmit forever. Either way the delivered bytes must be an
// exact prefix of the sent bytes and every sublayer contract must hold.
type chaosScenario struct {
	name           string
	expectComplete bool
	script         func() faults.Script
}

// chaosScenarios is the E10 fault matrix over the harness's 1–2–3–4
// line topology (hosts at 1 and 4). A transfer stops once both ends
// saw EOF, which on a clean path is about 0.3 s in, so the bursty-loss
// dwell and the flap window are short enough that their faults land
// inside it: a fault that fires after the last byte tests nothing.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "bursty-loss", expectComplete: true, script: func() faults.Script {
			return faults.Script{Name: "bursty-loss", Steps: []faults.Step{
				{At: 0, For: 30 * time.Second, Fault: faults.BurstyLoss{A: 2, B: 3, GE: faults.GEConfig{
					MeanGood: 100 * time.Millisecond, MeanBad: 60 * time.Millisecond, LossBad: 0.4,
				}}},
			}}
		}},
		{name: "link-flaps", expectComplete: true, script: func() faults.Script {
			return faults.Script{Name: "link-flaps", Steps: []faults.Step{
				{At: 50 * time.Millisecond, For: 300 * time.Millisecond, Fault: faults.RandomLinkFlaps{
					A: 2, B: 3, N: 5, MinDown: 50 * time.Millisecond, MaxDown: 250 * time.Millisecond,
				}},
			}}
		}},
		{name: "partition-heal", expectComplete: true, script: func() faults.Script {
			return faults.Script{Name: "partition-heal", Steps: []faults.Step{
				{At: 300 * time.Millisecond, For: 3 * time.Second, Fault: faults.Partition{Nodes: []network.Addr{3, 4}}},
			}}
		}},
		{name: "router-crash", expectComplete: true, script: func() faults.Script {
			return faults.Script{Name: "router-crash", Steps: []faults.Step{
				{At: 300 * time.Millisecond, For: 2 * time.Second, Fault: faults.RouterCrash{Addr: 3}},
			}}
		}},
		{name: "blackhole-heal", expectComplete: true, script: func() faults.Script {
			return faults.Script{Name: "blackhole-heal", Steps: []faults.Step{
				{At: 200 * time.Millisecond, For: 2 * time.Second, Fault: faults.Blackhole{At: 2}},
			}}
		}},
		// Permanent partition: the one scenario that must NOT complete.
		// Before the RD user timeout existed, the sublayered sender
		// retransmitted into this void forever; now both stacks abort
		// with ErrTimeout and a nonzero aborts counter.
		{name: "hard-partition", expectComplete: false, script: func() faults.Script {
			return faults.Script{Name: "hard-partition", Steps: []faults.Step{
				{At: 200 * time.Millisecond, For: 0, Fault: faults.Partition{Nodes: []network.Addr{4}}},
			}}
		}},
	}
}

// sumSuffix totals every counter in the snapshot whose name ends in
// "/"+leaf (e.g. all per-connection and stack-wide abort counters).
func sumSuffix(snap metrics.Snapshot, leaf string) uint64 {
	var total uint64
	suffix := "/" + leaf
	for _, s := range snap.Samples {
		if len(s.Name) > len(suffix) && s.Name[len(s.Name)-len(suffix):] == suffix {
			total += uint64(s.Value)
		}
	}
	return total
}

// E10ChaosSoak drives sublayered and monolithic TCP through the fault
// matrix: time-varying Gilbert–Elliott bursty loss, link flaps,
// partitions, a router crash-restart (routing reconverges via DV), a
// data-plane blackhole, and a permanent partition that must trip the
// user timeout. An invariant watchdog asserts the delivered stream is
// an exact prefix of the sent stream in every scenario and re-checks
// the per-sublayer contracts under chaos.
//
// With cfg.TraceDir set, every cell of the matrix runs with a
// causal-trace collector attached, watchdog violations trigger
// flight-recorder snapshots, and each cell's dump lands in the
// directory as deterministic JSON
// ("e10-<scenario>-<stack>.trace.json"). The aborting hard-partition
// cells additionally export their link frames as pcapng. The returned
// Result is byte-identical with tracing on or off — collectors are
// observational and never touch the registry.
func E10ChaosSoak(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:    "E10",
		Title: "chaos soak: fault matrix vs transport invariants",
		Header: []string{"scenario", "stack", "completed", "prefix-ok",
			"contract-viol", "aborts", "fault-events", "virtual-time"},
	}
	kinds := []harness.Kind{harness.KindSublayeredNative, harness.KindMonolithic}
	totalViolations := 0
	var hardAborts uint64
	idx := int64(0)
	for _, sc := range chaosScenarios() {
		for _, kind := range kinds {
			idx++
			wcfg := harness.WorldConfig{
				Seed: seed + idx, Backend: cfg.Backend,
				// Rate-limited so transfers outlast the fault windows.
				Link:   netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 4_000_000, QueueLimit: 64},
				Client: kind,
				Server: kind,
			}
			var contracts *verify.Checker
			if kind != harness.KindMonolithic {
				contracts = verify.NewChecker(verify.ModeRecord)
				wcfg.SubCfg.Contracts = contracts
			}

			var inj *faults.Injector
			wd := faults.NewWatchdog()
			c2s := randPayload(120_000, seed+idx)
			s2c := randPayload(60_000, seed+idx+500)
			var col *trace.Collector
			var capture *bytes.Buffer
			if cfg.TraceDir != "" {
				col = trace.NewCollector(trace.Options{RingCap: 1024, DoneCap: 128})
				if !sc.expectComplete {
					// The aborting scenario is the one worth opening in
					// Wireshark: capture its frames alongside the dump.
					capture = &bytes.Buffer{}
					if pw, err := pcap.NewWriter(capture); err == nil {
						col.CaptureTo(pw)
					}
				}
			}
			out := runWorld(wcfg, c2s, s2c, 15*time.Minute,
				func(w *harness.World, reg *metrics.Registry) {
					if col != nil {
						w.Sim.SetTracer(col)
					}
					inj = faults.New(w.Sim, w.Topo, seed+100+idx)
					inj.BindMetrics(reg.Scope("faults"))
					inj.MustApply(sc.script())
					wd.BindMetrics(reg.Scope("watchdog"))
				})
			if out.Err != nil {
				res.Rows = append(res.Rows, []string{sc.name, kind.String(), "error:" + out.Err.Error(), "", "", "", "", ""})
				continue
			}
			r := out.R
			completed := bytes.Equal(r.ServerGot, c2s) && bytes.Equal(r.ClientGot, s2c)
			if sc.expectComplete {
				wd.CheckComplete(sc.name+"/c2s", c2s, r.ServerGot)
				wd.CheckComplete(sc.name+"/s2c", s2c, r.ClientGot)
			} else {
				wd.CheckPrefix(sc.name+"/c2s", c2s, r.ServerGot)
				wd.CheckPrefix(sc.name+"/s2c", s2c, r.ClientGot)
			}
			contractViol := 0
			if contracts != nil {
				if !wd.CheckContracts(sc.name, contracts) {
					contractViol = len(contracts.Violations())
				}
			}
			totalViolations += len(wd.Violations())
			if col != nil {
				// Watchdog findings become flight-recorder snapshots, then
				// the cell's whole recording lands on disk.
				for _, v := range wd.Violations() {
					col.NoteViolation(out.W.Sim.Now(), "watchdog", v, 0)
				}
				name := fmt.Sprintf("e10-%s-%s", sc.name, kind)
				writeTraceDump(cfg.TraceDir, name+".trace.json", col)
				if capture != nil && capture.Len() > 0 {
					writeTraceFile(cfg.TraceDir, name+".pcapng", capture.Bytes())
				}
			}

			snap := out.Reg.Snapshot()
			aborts := sumSuffix(snap, "aborts")
			if sc.name == "hard-partition" {
				hardAborts += aborts
			}
			fe := inj.Stats()
			faultEvents := fe.Get("link_cuts") + fe.Get("link_restores") + fe.Get("partitions") +
				fe.Get("heals") + fe.Get("crashes") + fe.Get("restarts") +
				fe.Get("ge_transitions") + fe.Get("blackholes")
			res.Rows = append(res.Rows, []string{
				sc.name, kind.String(),
				fmt.Sprintf("%v", completed),
				fmt.Sprintf("%v", wd.OK()),
				fmt.Sprintf("%d", contractViol),
				fmt.Sprintf("%d", aborts),
				fmt.Sprintf("%d", faultEvents),
				r.Elapsed.Truncate(time.Millisecond).String(),
			})
			res.fold(fmt.Sprintf("%s/%s", sc.name, kind), snap)
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("invariant watchdog: %d violations across the matrix (delivered stream is always an exact prefix of the sent stream; sublayer contracts hold under chaos)", totalViolations),
		fmt.Sprintf("hard-partition aborts=%d: both stacks give up via the bounded user timeout instead of retransmitting forever", hardAborts),
		"healing scenarios complete end-to-end after reconvergence: the sublayer decomposition survives time-varying failures, not just static loss")
	return res
}
