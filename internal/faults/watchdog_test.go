package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestArmDeadlineFiresExactlyAtTheTick: the violation must carry the
// deadline's own virtual time — the check runs inside the event loop at
// precisely that tick, not "sometime after".
func TestArmDeadlineFiresExactlyAtTheTick(t *testing.T) {
	sim := netsim.NewSimulator(1)
	w := NewWatchdog()
	var seenAt netsim.Time
	progress := false
	w.ArmDeadline(sim, 1500*time.Millisecond, "xfer", func() bool {
		seenAt = sim.Now()
		return progress
	})
	// One tick before the deadline nothing has fired.
	sim.RunFor(1500*time.Millisecond - time.Nanosecond)
	if len(w.Violations()) != 0 {
		t.Fatalf("violation before the deadline tick: %v", w.Violations())
	}
	sim.RunFor(time.Nanosecond)
	if seenAt != netsim.Time(1500*time.Millisecond) {
		t.Errorf("predicate evaluated at %v, want exactly 1.5s", seenAt)
	}
	vs := w.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations=%d, want 1", len(vs))
	}
	if !strings.Contains(vs[0], "xfer") || !strings.Contains(vs[0], "1.5s") {
		t.Errorf("violation %q does not carry label and exact tick time", vs[0])
	}

	// A deadline whose predicate holds records nothing.
	w2 := NewWatchdog()
	sim2 := netsim.NewSimulator(1)
	w2.ArmDeadline(sim2, time.Second, "ok", func() bool { return true })
	sim2.RunFor(2 * time.Second)
	if !w2.OK() {
		t.Errorf("satisfied deadline raised %v", w2.Violations())
	}
}

// TestDisarmDuringCrashRestartWindow: a router crash-restart legally
// stalls transfers, so deadlines inside the declared outage window are
// skipped; deadlines after the window fire normally.
func TestDisarmDuringCrashRestartWindow(t *testing.T) {
	sim, topo := buildLine(t, 41, 3, netsim.LinkConfig{Delay: time.Millisecond})
	inj := New(sim, topo, 41)
	crashAt, crashFor := 500*time.Millisecond, 2*time.Second
	inj.MustApply(Script{Name: "crash", Steps: []Step{
		{At: crashAt, For: crashFor, Fault: RouterCrash{Addr: 2}},
	}})

	w := NewWatchdog()
	// Disarm over the outage plus reconvergence slack.
	w.Disarm(sim, crashAt, crashFor+time.Second)
	stalled := func() bool { return false }
	w.ArmDeadline(sim, time.Second, "mid-crash", stalled)        // inside window: skipped
	w.ArmDeadline(sim, 3200*time.Millisecond, "reconv", stalled) // still inside: skipped
	w.ArmDeadline(sim, 4*time.Second, "after-crash", stalled)    // window closed: fires
	sim.RunFor(5 * time.Second)

	vs := w.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations=%v, want exactly the post-window deadline", vs)
	}
	if !strings.Contains(vs[0], "after-crash") {
		t.Errorf("wrong deadline fired: %q", vs[0])
	}

	// Overlapping windows: checks resume only when every window closes.
	w2 := NewWatchdog()
	sim2 := netsim.NewSimulator(2)
	w2.Disarm(sim2, 0, 2*time.Second)
	w2.Disarm(sim2, time.Second, 2*time.Second)
	w2.ArmDeadline(sim2, 2500*time.Millisecond, "overlap", stalled) // first closed, second open
	w2.ArmDeadline(sim2, 3500*time.Millisecond, "clear", stalled)   // both closed
	sim2.RunFor(4 * time.Second)
	if got := w2.Violations(); len(got) != 1 || !strings.Contains(got[0], "clear") {
		t.Errorf("overlapping disarm windows: violations=%v, want only %q", got, "clear")
	}
}
