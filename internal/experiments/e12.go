package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// e12Flows is the per-cell flow count: enough concurrent flows that
// the bottleneck queue stays contended and the fairness index is
// meaningful, small enough that the 18-cell matrix stays cheap.
const e12Flows = 24

// e12CCs is the controller axis: the three real congestion-control
// families, by ccontrol name. (ccontrol has two more, fixed and
// rate-based, used by tests and examples.)
var e12CCs = []string{"newreno", "cubic", "bbrlite"}

// e12Link is the shared bottleneck every regime starts from, with
// per-packet loss probability loss: tight enough (10 Mb/s, 64-packet
// queue) that two dozen flows contend and the controller's window
// policy actually shows up in the completion-time tail and the
// fairness index.
func e12Link(loss float64) netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 10_000_000, QueueLimit: 64, LossProb: loss}
}

// e12Regimes is the loss axis: a clean bottleneck, uniform random
// loss, and Gilbert–Elliott bursty loss injected on the 2–3 middle
// link for the whole run (For: 0 = permanent).
var e12Regimes = []struct {
	name   string
	link   netsim.LinkConfig
	script faults.Script
}{
	{name: "clean", link: e12Link(0)},
	{name: "random-loss", link: e12Link(0.02)},
	{name: "bursty", link: e12Link(0), script: faults.Script{
		Name: "ge-bursty",
		Steps: []faults.Step{{At: 0, For: 0, Fault: faults.BurstyLoss{A: 2, B: 3, GE: faults.GEConfig{
			MeanGood: 300 * time.Millisecond, MeanBad: 50 * time.Millisecond, LossBad: 0.3,
		}}}},
	}},
}

// E12CCBakeoff is the congestion-control bake-off, the payoff of the
// ccontrol sublayer API: both stacks × {newreno, cubic, bbrlite} ×
// {clean, random-loss, bursty Gilbert–Elliott} — eighteen cells, every
// cell the identical flow plan at the identical seed, with only the
// stack, the controller name and the loss regime varying. Controllers
// are fungible (all 18 cells complete with zero watchdog violations)
// yet not interchangeable in performance: the goodput and fairness
// columns visibly move with the controller inside a fixed regime.
func E12CCBakeoff(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:    "E12",
		Title: "CC bake-off: {sublayered, monolithic} × {newreno, cubic, bbrlite} × {clean, random-loss, bursty}",
		Header: []string{"stack", "cc", "regime", "completed", "goodput",
			"fct-p50", "fct-p99", "fairness", "violations"},
	}
	totalViolations := 0
	// Per (stack, regime) group, track the goodput and fairness range
	// across the three controllers — the "does the choice matter" note.
	type span struct {
		loG, hiG uint64
		loF, hiF float64
	}
	spans := make(map[string]*span)
	// Every cell runs at the SAME seed, so the flow plan (sizes,
	// arrival schedule, payloads) is identical across cells and only
	// the stack, the controller and the loss regime vary.
	for _, kind := range e11Kinds {
		for _, cc := range e12CCs {
			for _, rg := range e12Regimes {
				r := workload.Run(workload.Config{
					Seed: seed, Backend: cfg.Backend, Flows: e12Flows,
					Client: kind, Server: kind,
					CC: cc, Link: rg.link, Script: rg.script,
				})
				totalViolations += len(r.Violations)
				res.Rows = append(res.Rows, []string{
					r.Stack, cc, rg.name,
					fmt.Sprintf("%d/%d", r.Completed, r.Flows),
					fmt.Sprintf("%.2fMbps", float64(r.GoodputBps)/1e6),
					r.FCTp50.Truncate(time.Millisecond).String(),
					r.FCTp99.Truncate(time.Millisecond).String(),
					fmt.Sprintf("%.4f", r.Fairness),
					fmt.Sprintf("%d", len(r.Violations)),
				})
				res.fold(fmt.Sprintf("%s/%s/%s", r.Stack, cc, rg.name), r.Metrics)
				key := r.Stack + "/" + rg.name
				sp := spans[key]
				if sp == nil {
					sp = &span{loG: r.GoodputBps, hiG: r.GoodputBps, loF: r.Fairness, hiF: r.Fairness}
					spans[key] = sp
				}
				sp.loG, sp.hiG = min(sp.loG, r.GoodputBps), max(sp.hiG, r.GoodputBps)
				sp.loF, sp.hiF = min(sp.loF, r.Fairness), max(sp.hiF, r.Fairness)
			}
		}
	}
	// The widest relative goodput spread across controllers in one
	// fixed (stack, regime) cell group.
	bestKey, bestSpread, bestFair := "", 0.0, 0.0
	for key, sp := range spans {
		if sp.loG == 0 {
			continue
		}
		spread := float64(sp.hiG-sp.loG) / float64(sp.loG)
		if spread > bestSpread {
			bestKey, bestSpread = key, spread
		}
		if d := sp.hiF - sp.loF; d > bestFair {
			bestFair = d
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("fungibility: all %d cells ran the identical flow plan, choosing the controller by its ccontrol name only — %d watchdog violations (every delivered stream equals the sent stream under every controller and regime)", len(res.Rows), totalViolations),
		fmt.Sprintf("the controller choice is visible: within %s the goodput spread across {newreno, cubic, bbrlite} is %.0f%%; the widest fairness gap across controllers in any fixed cell group is %.4f", bestKey, bestSpread*100, bestFair),
		"the sublayered swap is pure OSR wiring (Config.CC → ccontrol.MustNew, handed to OSR when the connection is built); the monolithic swap picks from the same ccontrol table, but E6's blast-radius columns show how much more PCB state a reviewer re-examines per swap",
	)
	return res
}
