package sublayered_test

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/harness"
)

// flowAllocs is what one short flow costs in heap objects, everything
// included: both hosts' connections with a registry attached, every
// event and segment the flow causes on a two-node world, and this
// driver's own three closures per flow. The flow is churn's: dial,
// 2 KiB one way, close from both ends, then the quiet period, so the
// connection that holds TIME-WAIT is torn down inside the measurement
// too. What the idle world's control plane allocates over the same
// window is measured first and taken out.
func flowAllocs(t *testing.T, kind harness.Kind) float64 {
	t.Helper()
	w := harness.BuildWorld(harness.WorldConfig{Hops: 2, Client: kind, Server: kind, Metrics: metrics.New()})
	defer w.Close()
	payload := make([]byte, 2048)
	got := 0
	if err := w.Server.Listen(80, func(sc transport.Conn) {
		sc.Callbacks(nil, func() {
			got += len(sc.ReadAll())
			if sc.EOF() {
				sc.Close()
			}
		}, nil, nil)
	}); err != nil {
		t.Fatal(err)
	}
	// Both stacks default to a 10 s quiet period.
	const window = 11 * time.Second
	idle := testing.AllocsPerRun(20, func() { w.Sim.RunFor(window) })
	flow := func() {
		c, err := w.Client.Dial(w.ServerAddr(), 80)
		if err != nil {
			t.Fatal(err)
		}
		c.Callbacks(func() {
			if n := c.Write(payload); n != len(payload) {
				t.Errorf("send buffer took %d of %d bytes", n, len(payload))
			}
			c.Close()
		}, func() { c.ReadAll() }, nil, nil)
		w.Sim.RunFor(window)
		if c.State() != transport.StateClosed {
			t.Fatalf("flow ended in state %s", c.State())
		}
	}
	const flows = 200
	perFlow := testing.AllocsPerRun(flows, flow) // one warm-up flow, then flows measured
	if got != (flows+1)*len(payload) {
		t.Fatalf("server read %d bytes over %d flows, want %d", got, flows+1, (flows+1)*len(payload))
	}
	return perFlow - idle
}

// TestFlowLifecycleAllocs guards the per-flow allocation count — the
// number churn's allocs_per_event is made of. The monolithic baseline
// is logged beside it as the figure to compare against, not bounded.
func TestFlowLifecycleAllocs(t *testing.T) {
	sub := flowAllocs(t, harness.KindSublayeredNative)
	mono := flowAllocs(t, harness.KindMonolithic)
	t.Logf("allocations per flow: sublayered %v, monolithic %v", sub, mono)
	// Measured: 9 sublayered and 21 monolithic; 13-16 and 21-28 under
	// the race detector, whose sync.Pool drops a share of the segment
	// buffers put back. (27 sublayered when each connection built its
	// own controller, timer callbacks, retransmission queue, send
	// buffer array and range set array; 75 when each sublayer, and each
	// of its parts, was an object of its own and every CM timer arm
	// allocated a closure, a wrapper and a Timer.) The 9 are, over both
	// hosts: the two Conns and their two managers, which a closed
	// handle keeps (TestConnLifeAllocs), the receiver's two read buffer
	// arrays (ReadAll gives the last away once the stream has ended),
	// and this test's 3 closures. Everything else a connection uses it
	// takes from its stack and gives back. The ceiling is the highest
	// race reading plus 10 %.
	const ceiling = 18
	if sub > ceiling {
		t.Errorf("a sublayered flow allocates %v objects, want <= %v", sub, ceiling)
	}
}
