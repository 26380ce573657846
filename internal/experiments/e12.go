package experiments

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// E12 self-registers like E11: one Register call and every tool
// (runreport, the benchmarks, the tests) picks it up.
func init() {
	Register("e12", E12CCBakeoff)
}

// e12Flows is the per-cell flow count: enough concurrent flows that
// the bottleneck queue stays contended and the fairness index is
// meaningful, small enough that the 18-cell matrix stays cheap.
const e12Flows = 24

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
	cells := workload.BakeoffOn(cfg.Backend, seed, e12Flows)
	totalViolations := 0
	// Per (stack, regime) group, track the goodput and fairness range
	// across the three controllers — the "does the choice matter" note.
	type span struct {
		loG, hiG uint64
		loF, hiF float64
	}
	spans := make(map[string]*span)
	for _, cell := range cells {
		r := cell.Report
		totalViolations += len(r.Violations)
		res.Rows = append(res.Rows, []string{
			r.Stack, cell.CC, cell.Regime,
			fmt.Sprintf("%d/%d", r.Completed, r.Flows),
			fmt.Sprintf("%.2fMbps", float64(r.GoodputBps)/1e6),
			r.FCTp50.Truncate(time.Millisecond).String(),
			r.FCTp99.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%.4f", r.Fairness),
			fmt.Sprintf("%d", len(r.Violations)),
		})
		res.fold(fmt.Sprintf("%s/%s/%s", r.Stack, cell.CC, cell.Regime), r.Metrics)
		key := r.Stack + "/" + cell.Regime
		sp := spans[key]
		if sp == nil {
			sp = &span{loG: r.GoodputBps, hiG: r.GoodputBps, loF: r.Fairness, hiF: r.Fairness}
			spans[key] = sp
		}
		if r.GoodputBps < sp.loG {
			sp.loG = r.GoodputBps
		}
		if r.GoodputBps > sp.hiG {
			sp.hiG = r.GoodputBps
		}
		if r.Fairness < sp.loF {
			sp.loF = r.Fairness
		}
		if r.Fairness > sp.hiF {
			sp.hiF = r.Fairness
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
		fmt.Sprintf("fungibility: all %d cells ran the identical flow plan through ccontrol.Registry names only — %d watchdog violations (every delivered stream equals the sent stream under every controller and regime)", len(cells), totalViolations),
		fmt.Sprintf("the controller choice is visible: within %s the goodput spread across {newreno, cubic, bbrlite} is %.0f%%; the widest fairness gap across controllers in any fixed cell group is %.4f", bestKey, bestSpread*100, bestFair),
		"the sublayered swap is pure OSR wiring (Config.CC → ccontrol.MustNew inside newOSR); the monolithic swap rides the same registry but E6's blast-radius columns show how much more PCB state a reviewer re-examines per swap",
	)
	return res
}
