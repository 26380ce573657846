package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/transport/harness"
)

// worldRun is the outcome of one scenario cell: the world (its stacks
// behind the transport.Stack interface), the transfer result, and the
// full registry snapshot taken after the run.
type worldRun struct {
	W   *harness.World
	R   *harness.TransferResult
	Err error
	// Snap is the registry snapshot taken right after the transfer;
	// callers that keep mutating instruments afterwards (E10's
	// watchdog checks) re-snapshot via Reg.
	Snap metrics.Snapshot
	Reg  *metrics.Registry
}

// runWorld removes the boilerplate every world-driving experiment
// (E3, E4, E7–E10) used to repeat: create a registry, build the world,
// run the bidirectional transfer, snapshot. The optional setup hook
// runs between construction and transfer with the world's registry, so
// callers can attach fault injectors or watchdogs.
func runWorld(wcfg harness.WorldConfig, c2s, s2c []byte, budget time.Duration,
	setup func(w *harness.World, reg *metrics.Registry)) worldRun {
	reg := metrics.New()
	wcfg.Metrics = reg
	w := harness.BuildWorld(wcfg)
	if setup != nil {
		setup(w, reg)
	}
	r, err := harness.RunTransfer(w, c2s, s2c, budget)
	return worldRun{W: w, R: r, Err: err, Snap: reg.Snapshot(), Reg: reg}
}

// fold merges a scenario's samples into the result under prefix.
func (r *Result) fold(prefix string, snap metrics.Snapshot) {
	r.Metrics = metrics.Merge(r.Metrics, snap.WithPrefix(prefix))
}
