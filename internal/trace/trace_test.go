package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport/harness"
)

func TestSummarizeKinds(t *testing.T) {
	if got := Summarize(nil); got != "empty" {
		t.Errorf("empty = %q", got)
	}
	if got := Summarize([]byte{9, 9}); !strings.Contains(got, "unknown") {
		t.Errorf("unknown class = %q", got)
	}
	// Datagram with a standard TCP segment inside.
	h := &tcpwire.TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 5, Ack: 7,
		Flags: tcpwire.FlagSYN | tcpwire.FlagACK, Window: 100, WScale: -1}
	wire := h.Marshal([]byte("xy"), 1, 2)
	dg := &network.Datagram{Src: 1, Dst: 2, TTL: 9, Proto: network.ProtoTCP, Payload: wire}
	got := Summarize(dg.Marshal())
	for _, want := range []string{"n1→n2", "TCP 1000→80", "SYN|ACK", "seq=5", "len=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("TCP summary %q missing %q", got, want)
		}
	}
	// Sublayered header: every sublayer's section labelled.
	sh := &tcpwire.SubHeader{
		DM:  tcpwire.DMSection{SrcPort: 5, DstPort: 6},
		CM:  tcpwire.CMSection{SYN: true, ISN: 42},
		RD:  tcpwire.RDSection{Seq: 43, AckValid: true, Ack: 9},
		OSR: tcpwire.OSRSection{Window: 77, ECE: true},
	}
	dg2 := &network.Datagram{Src: 3, Dst: 4, TTL: 5, Proto: network.ProtoSubTCP, Payload: sh.Marshal(nil)}
	got = Summarize(dg2.Marshal())
	for _, want := range []string{"dm=[5→6]", "cm=[SYN isn=42]", "rd=[seq=43", "osr=[win=77 ECE]"} {
		if !strings.Contains(got, want) {
			t.Errorf("SUBTCP summary %q missing %q", got, want)
		}
	}
	// Corrupt TCP payload reported, not panicked.
	dg.Payload = wire[:8]
	if got := Summarize(dg.Marshal()); !strings.Contains(got, "malformed") {
		t.Errorf("corrupt = %q", got)
	}
}

func TestRecorderOverLiveTraffic(t *testing.T) {
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: 3, Link: netsim.LinkConfig{Delay: time.Millisecond},
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	rec := NewRecorder(w.Sim, 4096)
	rec.Attach(w.Topo.Routers[w.ServerAddr()])
	if _, err := harness.RunTransfer(w, make([]byte, 20_000), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 {
		t.Fatal("no events recorded")
	}
	dump := rec.Dump()
	for _, want := range []string{"SUBTCP", "HELLO", "dm=["} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	if len(rec.Events()) > 4096 {
		t.Error("ring limit not enforced")
	}
}

func TestRecorderRingDropsOldest(t *testing.T) {
	sim := netsim.NewSimulator(1)
	rec := NewRecorder(sim, 3)
	for i := 0; i < 5; i++ {
		rec.add(Event{Len: i})
	}
	ev := rec.Events()
	if len(ev) != 3 || ev[0].Len != 2 || ev[2].Len != 4 {
		t.Errorf("ring contents = %+v", ev)
	}
	if rec.Total() != 5 {
		t.Errorf("Total = %d", rec.Total())
	}
}

// TestTotalOutlivesRing pins the documented overflow contract: Total
// keeps counting far past the retention window, the window stays at
// the limit, and the report carries both numbers.
func TestTotalOutlivesRing(t *testing.T) {
	sim := netsim.NewSimulator(1)
	rec := NewRecorder(sim, 8)
	const n = 10_000
	for i := 0; i < n; i++ {
		rec.add(Event{Len: i})
	}
	if rec.Total() != n {
		t.Errorf("Total = %d, want %d", rec.Total(), n)
	}
	if got := len(rec.Events()); got != 8 {
		t.Errorf("retained %d events, want 8", got)
	}
	// The retained window is the newest events, in order.
	ev := rec.Events()
	for i, e := range ev {
		if e.Len != n-8+i {
			t.Errorf("window[%d] = event %d, want %d (oldest first)", i, e.Len, n-8+i)
		}
	}
	if lines := strings.Split(strings.TrimSpace(rec.Dump()), "\n"); len(lines) != 8 ||
		!strings.Contains(lines[0], fmt.Sprintf("%dB", n-8)) || !strings.Contains(lines[7], fmt.Sprintf("%dB", n-1)) {
		t.Errorf("Dump is not the window oldest first:\n%s", rec.Dump())
	}
}

func TestSummarizeRoutingAndHello(t *testing.T) {
	// Built through a live world: attach to a router and let hellos
	// and routing PDUs arrive.
	w := harness.BuildWorld(harness.WorldConfig{
		Seed: 4, Link: netsim.LinkConfig{Delay: time.Millisecond},
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	})
	rec := NewRecorder(w.Sim, 256)
	rec.Attach(w.Topo.Routers[2])
	w.Sim.RunFor(3 * time.Second)
	dump := rec.Dump()
	if !strings.Contains(dump, "HELLO from") {
		t.Error("no hello decoded")
	}
	if !strings.Contains(dump, "distance-vector from") {
		t.Error("no routing PDU decoded")
	}
}
