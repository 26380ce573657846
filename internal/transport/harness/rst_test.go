package harness

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
)

// TestNothingLeavesAfterRST: a connection the application aborts from
// inside a callback sends its RST and then nothing more, on either
// stack — not the acknowledgement the receive path was about to send,
// not queued data. What its host sends on that flow afterwards can
// only be RSTs answering the peer's segments still in flight. Each
// case taps the other end's router and checks that after the first
// RST on the flow, every segment from the aborting end is an RST.
func TestNothingLeavesAfterRST(t *testing.T) {
	data := randBytes(64<<10, 3)
	cases := []struct {
		name string
		// start sets the connection up; it aborts on one of the two ends.
		start func(t *testing.T, w *World)
		// aborter is the address of the aborting end; the tap sits on
		// the other.
		aborter func(w *World) network.Addr
	}{
		{"server aborts from OnReadable", func(t *testing.T, w *World) {
			stream(t, w, data, func(sc transport.Conn) {
				sc.Callbacks(nil, func() {
					sc.ReadAll()
					sc.Abort()
				}, nil, nil)
			})
		}, func(w *World) network.Addr { return w.ServerAddr() }},
		{"server aborts from OnReadable at EOF", func(t *testing.T, w *World) {
			stream(t, w, data[:3000], func(sc transport.Conn) {
				sc.Callbacks(nil, func() {
					sc.ReadAll()
					if sc.EOF() {
						sc.Abort()
					}
				}, nil, nil)
			})
		}, func(w *World) network.Addr { return w.ServerAddr() }},
		{"server aborts from its accept callback", func(t *testing.T, w *World) {
			if err := w.Server.Listen(80, func(sc transport.Conn) { sc.Abort() }); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Client.Dial(w.ServerAddr(), 80); err != nil {
				t.Fatal(err)
			}
		}, func(w *World) network.Addr { return w.ServerAddr() }},
		{"client aborts from OnConnected with data queued", func(t *testing.T, w *World) {
			if err := w.Server.Listen(80, func(sc transport.Conn) {
				sc.Callbacks(nil, func() { sc.ReadAll() }, nil, nil)
			}); err != nil {
				t.Fatal(err)
			}
			cc, err := w.Client.Dial(w.ServerAddr(), 80)
			if err != nil {
				t.Fatal(err)
			}
			cc.Write(data[:4000])
			cc.Callbacks(func() { cc.Abort() }, nil, nil, nil)
		}, func(w *World) network.Addr { return 1 }},
	}
	for _, tc := range cases {
		for _, kind := range readKinds {
			w := BuildWorld(WorldConfig{Seed: 1, Client: kind, Server: kind,
				Link: netsim.LinkConfig{Delay: 2 * time.Millisecond}})
			from := tc.aborter(w)
			watch := w.ServerAddr()
			if from == watch {
				watch = 1
			}
			var rsts, after int
			w.Topo.Routers[watch].Tap(func(_ int, frame []byte) {
				if len(frame) == 0 || frame[0] != 0 { // control traffic
					return
				}
				dg, err := network.UnmarshalDatagram(frame)
				if err != nil || dg.Src != from {
					return
				}
				rst := false
				switch dg.Proto {
				case network.ProtoSubTCP:
					h, _, err := tcpwire.UnmarshalSub(dg.Payload)
					rst = err == nil && h.CM.RST
				case network.ProtoTCP:
					h, _, err := tcpwire.UnmarshalTCP(dg.Payload, uint16(dg.Src), uint16(dg.Dst))
					rst = err == nil && h.Flags&tcpwire.FlagRST != 0
				default:
					return
				}
				switch {
				case rst:
					rsts++
				case rsts > 0:
					after++
				}
			})
			tc.start(t, w)
			w.Sim.RunFor(5 * time.Second)
			if rsts == 0 {
				t.Errorf("%s, %v: no RST seen", tc.name, kind)
			}
			if after > 0 {
				t.Errorf("%s, %v: %d segments left n%d after its RST", tc.name, kind, after, from)
			}
			w.Close()
		}
	}
}
