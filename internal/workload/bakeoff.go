package workload

import (
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/transport/harness"
)

// BakeoffCCs is the E12 controller axis: the three registry names the
// bake-off swaps behind the identical workload. (The registry holds two
// more — fixed and rate-based — used by tests and examples; the
// bake-off compares the three real congestion-control families.)
var BakeoffCCs = []string{"newreno", "cubic", "bbrlite"}

// Regime is one loss environment of the E12 matrix: a shared-path link
// shape plus an optional fault script layered on the middle hop.
type Regime struct {
	Name   string
	Link   netsim.LinkConfig
	Script faults.Script
}

// bakeoffLink is the shared bottleneck every regime starts from:
// tight enough (10 Mb/s, 64-packet queue) that two dozen flows contend
// and the controller's window policy actually shows up in the
// completion-time tail and the fairness index.
func bakeoffLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 10_000_000, QueueLimit: 64}
}

// BakeoffRegimes is the E12 loss axis: a clean bottleneck, uniform
// random loss, and Gilbert–Elliott bursty loss injected on the 2–3
// middle link for the whole run (For: 0 = permanent).
func BakeoffRegimes() []Regime {
	clean := bakeoffLink()
	lossy := bakeoffLink()
	lossy.LossProb = 0.02
	return []Regime{
		{Name: "clean", Link: clean},
		{Name: "random-loss", Link: lossy},
		{Name: "bursty", Link: clean, Script: faults.Script{
			Name: "ge-bursty",
			Steps: []faults.Step{{At: 0, For: 0, Fault: faults.BurstyLoss{A: 2, B: 3, GE: faults.GEConfig{
				MeanGood: 300 * time.Millisecond, MeanBad: 50 * time.Millisecond, LossBad: 0.3,
			}}}},
		}},
	}
}

// BakeoffCell is one (stack × controller × regime) entry of the E12
// matrix.
type BakeoffCell struct {
	Kind   harness.Kind
	CC     string
	Regime string
	Report *Report
}

// BakeoffOn runs the full E12 matrix on an explicit backend ("" =
// default sim): both stacks × BakeoffCCs × BakeoffRegimes, every cell
// at the SAME seed so the flow plan (sizes, arrival schedule,
// payloads) is identical across cells and the only thing that varies
// is the stack, the controller and the loss regime. The cells are
// byte-identical across sim and sharded backends.
func BakeoffOn(backend string, seed int64, flows int) []BakeoffCell {
	var cells []BakeoffCell
	for _, kind := range MatrixKinds {
		for _, cc := range BakeoffCCs {
			for _, rg := range BakeoffRegimes() {
				rep := Run(Config{
					Seed: seed, Backend: backend, Flows: flows,
					Client: kind, Server: kind,
					CC: cc, Link: rg.Link, Script: rg.Script,
				})
				cells = append(cells, BakeoffCell{Kind: kind, CC: cc, Regime: rg.Name, Report: rep})
			}
		}
	}
	return cells
}
