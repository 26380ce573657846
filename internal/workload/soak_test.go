package workload

import (
	"testing"
	"time"

	"repro/internal/transport/harness"
)

// soakTestConfig is a small E15-shaped cell: enough concurrent flows
// to exercise the backend's locking under -race, small enough to keep
// the race job fast.
func soakTestConfig(backend string, flows int) Config {
	return Config{
		Seed:    3,
		Backend: backend,
		Flows:   flows,
		Client:  harness.KindSublayeredNative,
		Server:  harness.KindSublayeredNative,
		MinSize: 2 * 1024, MaxSize: 8 * 1024,
		OnPeriod: 100 * time.Millisecond, OffPeriod: 20 * time.Millisecond,
		Cycles: 2,
		Budget: 20 * time.Second,
	}
}

// assertSoak runs one real-time cell and asserts the E11 invariants
// held: every flow completed and every delivered stream matched the
// sent stream byte for byte.
func assertSoak(t *testing.T, backend string, flows int) {
	t.Helper()
	rep := Run(soakTestConfig(backend, flows))
	if rep.Completed != flows {
		t.Fatalf("%s backend: completed %d/%d flows (failed=%d)", backend, rep.Completed, flows, rep.Failed)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("%s backend: watchdog violations: %v", backend, rep.Violations)
	}
	if rep.Events == 0 {
		t.Fatalf("%s backend: no events executed", backend)
	}
	if rep.Setup <= 0 {
		t.Fatalf("%s backend: setup %v, want the wall-clock convergence time", backend, rep.Setup)
	}
	t.Logf("%s backend: setup %v", backend, rep.Setup)
}

// TestConcurrentFlowsChanBackend drives 8 concurrent flows over the
// in-process channel network. Under -race this is the backend's
// concurrency-contract check: every protocol callback, metric
// mutation and trace emission must happen with the backend lock held.
func TestConcurrentFlowsChanBackend(t *testing.T) {
	assertSoak(t, harness.BackendChan, 8)
}

// TestConcurrentFlowsUDPBackend is the same contract check over real
// loopback UDP sockets.
func TestConcurrentFlowsUDPBackend(t *testing.T) {
	if !harness.UDPAvailable() {
		t.Skip("loopback UDP sockets unavailable")
	}
	assertSoak(t, harness.BackendUDP, 8)
}
