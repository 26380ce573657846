package udpnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
)

func newNet(t *testing.T) *Network {
	t.Helper()
	if !Available() {
		t.Skip("loopback UDP sockets unavailable")
	}
	n, err := New(1, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

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

func TestUDPDelivery(t *testing.T) {
	n := newNet(t)
	var got [][]byte
	var port netsim.Port
	n.Exec(func() {
		port = n.NewLink(netsim.LinkConfig{}, func(p *netsim.Packet) {
			got = append(got, append([]byte(nil), p.Data...))
		})
		for i := 0; i < 10; i++ {
			port.Send([]byte(fmt.Sprintf("datagram-%d", i)))
		}
	})
	waitFor(t, n, "10 deliveries", func() bool { return len(got) == 10 })
	n.Exec(func() {
		seen := map[string]bool{}
		for _, g := range got {
			seen[string(g)] = true
		}
		for i := 0; i < 10; i++ {
			if !seen[fmt.Sprintf("datagram-%d", i)] {
				t.Fatalf("datagram-%d never arrived (got %d frames)", i, len(got))
			}
		}
	})
}

func TestUDPECNSurvivesTheWire(t *testing.T) {
	n := newNet(t)
	var gotECN, delivered bool
	var port netsim.Port
	n.Exec(func() {
		port = n.NewLink(netsim.LinkConfig{}, func(p *netsim.Packet) {
			gotECN, delivered = p.ECN, true
		})
		port.SendOwned(netsim.CloneBuf([]byte("marked")), true)
	})
	waitFor(t, n, "delivery", func() bool { return delivered })
	if !gotECN {
		t.Fatal("ECN mark lost across the UDP framing")
	}
}

// TestUDPFailedWriteIsCounted pins the link's books on a socket error:
// a packet the plan let through but the kernel refused is a send-side
// down_drop, so sent = delivered + lost + queue_drop + down_drop holds.
func TestUDPFailedWriteIsCounted(t *testing.T) {
	n := newNet(t)
	var port netsim.Port
	n.Exec(func() {
		port = n.NewLink(netsim.LinkConfig{}, func(p *netsim.Packet) { t.Error("delivered over a closed socket") })
		port.(*link).send.Close()
		port.Send([]byte("nowhere to go"))
	})
	waitFor(t, n, "the failed write to be counted", func() bool { return port.Stats().Get("down_drop") == 1 })
	n.Exec(func() {
		if st := port.Stats(); st.Get("sent") != 1 || st.Get("delivered") != 0 {
			t.Errorf("sent=%d delivered=%d, want 1/0", st.Get("sent"), st.Get("delivered"))
		}
	})
}

// FuzzUDPFrame: parseFrame never panics on a hostile datagram, accepts
// exactly the frames of this version, and a frame it accepts, framed
// again from what it returned, is the input with its unknown flag bits
// cleared — the payload and the ECN mark survive the wire exactly.
func FuzzUDPFrame(f *testing.F) {
	for _, ecn := range []bool{false, true} {
		frame := make([]byte, headerLen+3)
		putHeader(frame, ecn)
		copy(frame[headerLen:], "seg")
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add([]byte{frameVersion, 0xff})
	f.Add([]byte{frameVersion + 1, 0, 1, 2})
	f.Fuzz(func(t *testing.T, frame []byte) {
		payload, ecn, ok := parseFrame(frame)
		if want := len(frame) >= headerLen && frame[0] == frameVersion; ok != want {
			t.Fatalf("parseFrame(% x) ok = %v, want %v", frame, ok, want)
		}
		if !ok {
			return
		}
		again := make([]byte, headerLen+len(payload))
		putHeader(again, ecn)
		copy(again[headerLen:], payload)
		want := append([]byte(nil), frame...)
		want[1] &= flagECN
		if string(again) != string(want) {
			t.Fatalf("re-framed % x as % x", frame, again)
		}
	})
}
