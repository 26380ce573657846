package channet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// waitFor polls cond under the network lock until it holds or the
// wall deadline passes.
func waitFor(t *testing.T, n *Network, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := false
		n.Exec(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestChanDeliveryInOrder(t *testing.T) {
	n := New(1, nil)
	defer n.Close()
	var got [][]byte
	var port netsim.Port
	n.Exec(func() {
		port = n.NewLink(netsim.LinkConfig{Delay: time.Millisecond}, func(p *netsim.Packet) {
			got = append(got, append([]byte(nil), p.Data...))
		})
		for i := 0; i < 20; i++ {
			port.Send([]byte(fmt.Sprintf("msg-%02d", i)))
		}
	})
	waitFor(t, n, "20 deliveries", func() bool { return len(got) == 20 })
	n.Exec(func() {
		for i, g := range got {
			if want := fmt.Sprintf("msg-%02d", i); string(g) != want {
				t.Fatalf("packet %d out of order: got %q want %q", i, g, want)
			}
		}
	})
}

func TestChanMetricsIdentity(t *testing.T) {
	reg := metrics.New()
	n := New(1, reg)
	defer n.Close()
	var delivered int
	var port netsim.Port
	n.Exec(func() {
		port = n.NewLink(netsim.LinkConfig{}, func(p *netsim.Packet) { delivered++ })
		port.Send([]byte("x"))
	})
	waitFor(t, n, "delivery", func() bool { return delivered == 1 })
	snap := reg.Snapshot()
	var sawLink, sawEvents bool
	for _, s := range snap.Samples {
		switch s.Name {
		case "netsim/link0/sent":
			sawLink = true
			if s.Value != 1 {
				t.Errorf("link0/sent = %d, want 1", s.Value)
			}
		case "netsim/events/executed":
			sawEvents = true
			if s.Value < 1 {
				t.Errorf("events/executed = %d, want >= 1", s.Value)
			}
		}
	}
	if !sawLink || !sawEvents {
		t.Fatalf("missing sim-identical instrument names (link=%v events=%v)", sawLink, sawEvents)
	}
}
