package sublayered

import (
	"bytes"
	"math/rand"
	"repro/internal/metrics"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
)

// TestECNBottleneckReaction: a rate-limited bottleneck link with ECN
// marking makes the receiver echo ECE and the sender's congestion
// control react — fewer queue drops than pure tail-drop would force.
func TestECNBottleneckReaction(t *testing.T) {
	sim := netsim.NewSimulator(23)
	// Host 1 — bottleneck — host 3. The middle link is slow, shallow
	// and ECN-marking.
	edges := []network.Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}}
	topo := network.BuildTopology(sim, edges,
		netsim.LinkConfig{Delay: time.Millisecond},
		network.NeighborConfig{HelloInterval: 200 * time.Millisecond},
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
	// Replace the 2–3 link with a marking bottleneck: cut the original
	// and connect a new one with a shallow ECN-marking queue.
	topo.CutLink(2, 3)
	network.ConnectRouters(sim, topo.Routers[2], topo.Routers[3], netsim.LinkConfig{
		Delay: time.Millisecond, RateBps: 4_000_000, QueueLimit: 40, ECNThreshold: 8,
	}, 1)
	sim.RunFor(5 * time.Second)

	client := NewStack(sim, topo.Routers[1], Config{})
	server := NewStack(sim, topo.Routers[3], Config{})
	lis, _ := server.Listen(80)
	var got []byte
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() { got = append(got, c.ReadAll()...) }
	}
	data := randBytes(300_000, 23)
	cc, _ := client.Dial(3, 80)
	toSend := data
	push := func() {
		for len(toSend) > 0 {
			n := cc.Write(toSend)
			if n == 0 {
				break
			}
			toSend = toSend[n:]
		}
		if len(toSend) == 0 {
			cc.Close()
		}
	}
	cc.OnConnected = push
	cc.OnWritable = push
	sim.RunFor(5 * time.Minute)

	if !bytes.Equal(got, data) {
		t.Fatalf("transfer through bottleneck failed (%d of %d)", len(got), len(data))
	}
	if cc.OSR().Stats().Get("ecn_reactions") == 0 {
		t.Error("congestion control never reacted to ECN despite a marking bottleneck")
	}
}

// TestGarbageSegmentsDoNotPanic: feed the demultiplexer random bytes,
// truncated headers, and bit-flipped real segments. Nothing may panic,
// and live connections must survive.
func TestGarbageSegmentsDoNotPanic(t *testing.T) {
	w := newWorld(t, 24, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var got []byte
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() { got = append(got, c.ReadAll()...) }
	}
	cc, _ := w.client.Dial(4, 80)
	msg := randBytes(20_000, 3)
	toSend := msg
	push := func() {
		for len(toSend) > 0 {
			n := cc.Write(toSend)
			if n == 0 {
				break
			}
			toSend = toSend[n:]
		}
		if len(toSend) == 0 {
			cc.Close()
		}
	}
	cc.OnConnected = push
	cc.OnWritable = push

	// Interleave garbage injections with the transfer.
	rng := rand.New(rand.NewSource(99))
	w.sim.Every(20*time.Millisecond, func() {
		kind := rng.Intn(3)
		var junk []byte
		switch kind {
		case 0: // pure noise
			junk = make([]byte, rng.Intn(60))
			rng.Read(junk)
		case 1: // truncated real-looking header
			h := &tcpwire.SubHeader{
				DM: tcpwire.DMSection{SrcPort: uint16(rng.Intn(65536)), DstPort: 80},
				RD: tcpwire.RDSection{Seq: rng.Uint32(), Ack: rng.Uint32(), AckValid: true},
			}
			full := h.Marshal(nil)
			junk = full[:rng.Intn(len(full))]
		case 2: // valid header to the listening port with wild fields
			h := &tcpwire.SubHeader{
				DM: tcpwire.DMSection{SrcPort: uint16(rng.Intn(65536)), DstPort: 80},
				CM: tcpwire.CMSection{FIN: rng.Intn(2) == 0, ISN: rng.Uint32()},
				RD: tcpwire.RDSection{Seq: rng.Uint32(), Ack: rng.Uint32(), AckValid: true},
			}
			junk = h.Marshal(nil)
		}
		_ = w.topo.Routers[1].Send(4, network.ProtoSubTCP, junk)
	})
	w.sim.RunFor(time.Minute)

	if !bytes.Equal(got, msg) {
		t.Fatalf("legitimate transfer corrupted by garbage traffic (%d of %d)", len(got), len(msg))
	}
	if metrics.ViewOf(w.server.dm.m.each).Get("malformed") == 0 {
		t.Error("no malformed segments counted despite noise injection")
	}
}

// TestStrayAcksCannotAdvanceWindow: forged acks beyond what was sent
// are ignored (the RD ack bound).
func TestStrayAcksCannotAdvanceWindow(t *testing.T) {
	w := newWorld(t, 25, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	lis.OnAccept = func(c *Conn) {}
	cc, _ := w.client.Dial(4, 80)
	w.sim.RunFor(time.Second)
	if cc.State() != "ESTABLISHED" {
		t.Fatal("not established")
	}
	// Forge an ack far beyond anything sent.
	before := cc.RD().sndUna
	h := &tcpwire.SubHeader{
		DM: tcpwire.DMSection{SrcPort: 80, DstPort: cc.LocalPort()},
		CM: tcpwire.CMSection{ISN: 1},
		RD: tcpwire.RDSection{Seq: 1, Ack: uint32(before.Add(1 << 20)), AckValid: true},
	}
	_ = w.topo.Routers[4].Send(1, network.ProtoSubTCP, h.Marshal(nil))
	w.sim.RunFor(time.Second)
	if cc.RD().sndUna != before {
		t.Errorf("forged ack advanced sndUna: %d → %d", before, cc.RD().sndUna)
	}
}

// TestDelayedAcksHalveAckTraffic: the challenge-3 tune — delayed acks
// roughly halve acknowledgement traffic on a clean transfer with no
// loss of correctness.
func TestDelayedAcksHalveAckTraffic(t *testing.T) {
	run := func(delayed bool) (uint64, bool) {
		cfg := Config{DelayedAcks: delayed}
		w := newWorld(t, 26, cleanLink(), cfg, cfg)
		data := randBytes(100_000, 6)
		res := runTransfer(t, w, data, nil, time.Minute)
		var acks uint64
		if res.serverConn != nil {
			acks = res.serverConn.RD().Stats().Get("acks_sent")
		}
		return acks, bytes.Equal(res.serverGot, data)
	}
	ackEvery, ok1 := run(false)
	ackDelayed, ok2 := run(true)
	if !ok1 || !ok2 {
		t.Fatal("transfer failed")
	}
	if ackDelayed*3 > ackEvery*2 {
		t.Errorf("delayed acks did not thin traffic: %d vs %d", ackDelayed, ackEvery)
	}
}

// TestDelayedAcksStillRecoverFromLoss: out-of-order arrivals bypass
// the delay, so fast retransmit still works.
func TestDelayedAcksStillRecoverFromLoss(t *testing.T) {
	cfg := Config{DelayedAcks: true}
	w := newWorld(t, 27, nastyLink(), cfg, cfg)
	data := randBytes(100_000, 7)
	res := runTransfer(t, w, data, nil, 5*time.Minute)
	if !bytes.Equal(res.serverGot, data) {
		t.Fatalf("lossy transfer with delayed acks failed (%d of %d)", len(res.serverGot), len(data))
	}
}

// TestTimeWaitReAcksRetransmittedFIN: a peer whose FIN-ack was lost
// keeps retransmitting its FIN; the TIME_WAIT side must keep
// re-acknowledging rather than going silent.
func TestTimeWaitReAcksRetransmittedFIN(t *testing.T) {
	w := newWorld(t, 28, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var srv *Conn
	lis.OnAccept = func(c *Conn) { srv = c }
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { cc.Close() }
	w.sim.RunFor(2 * time.Second)
	if srv == nil {
		t.Fatal("no server conn")
	}
	srv.Close()
	w.sim.RunFor(2 * time.Second)
	// Client should be in TIME_WAIT (it closed first) or already
	// finished; if TIME_WAIT, a re-sent FIN must elicit an ack.
	if cc.State() == "TIME_WAIT" {
		acksBefore := cc.RD().Stats().Get("acks_sent")
		fin := &tcpwire.SubHeader{
			DM: tcpwire.DMSection{SrcPort: 80, DstPort: cc.LocalPort()},
			CM: tcpwire.CMSection{FIN: true, ISN: uint32(srv.cm.(*HandshakeCM).isn)},
			RD: tcpwire.RDSection{Seq: uint32(srv.cm.localFinSeq()), AckValid: true},
		}
		_ = w.topo.Routers[4].Send(1, network.ProtoSubTCP, fin.Marshal(nil))
		w.sim.RunFor(time.Second)
		if cc.RD().Stats().Get("acks_sent") <= acksBefore {
			t.Error("TIME_WAIT did not re-ack a retransmitted FIN")
		}
	}
}

// TestSimultaneousClose: both sides close at once; both reach CLOSED
// without errors (FIN_WAIT_1 → CLOSING → TIME_WAIT path).
func TestSimultaneousClose(t *testing.T) {
	w := newWorld(t, 29, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var srv *Conn
	var srvErr, cliErr error
	srvDone, cliDone := false, false
	lis.OnAccept = func(c *Conn) {
		srv = c
		c.OnClosed = func(err error) { srvErr = err; srvDone = true }
	}
	cc, _ := w.client.Dial(4, 80)
	cc.OnClosed = func(err error) { cliErr = err; cliDone = true }
	cc.OnConnected = func() {
		// Close both ends in the same instant.
		cc.Close()
		if srv != nil {
			srv.Close()
		}
	}
	w.sim.RunFor(time.Minute)
	if !srvDone || !cliDone {
		t.Fatalf("teardown incomplete: srv=%v cli=%v (states %s/%s)",
			srvDone, cliDone, srv.State(), cc.State())
	}
	if srvErr != nil || cliErr != nil {
		t.Errorf("close errors: %v / %v", srvErr, cliErr)
	}
}

// TestHalfCloseServesData: after the client closes its write side, the
// server can still stream data back (half-open connection).
func TestHalfCloseServesData(t *testing.T) {
	w := newWorld(t, 30, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	reply := randBytes(30_000, 10)
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() {
			c.ReadAll() // drain the request
			if c.EOF() {
				// Client finished its request; stream the response.
				toSend := reply
				push := func() {
					for len(toSend) > 0 {
						n := c.Write(toSend)
						if n == 0 {
							break
						}
						toSend = toSend[n:]
					}
					if len(toSend) == 0 {
						c.Close()
					}
				}
				c.OnWritable = push
				push()
			}
		}
	}
	var got []byte
	gotEOF := false
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() {
		cc.Write([]byte("GET /"))
		cc.Close() // half-close: done writing, still reading
	}
	cc.OnReadable = func() {
		got = append(got, cc.ReadAll()...)
		if cc.EOF() {
			gotEOF = true
		}
	}
	w.sim.RunFor(time.Minute)
	if !bytes.Equal(got, reply) {
		t.Fatalf("half-close response: %d of %d bytes", len(got), len(reply))
	}
	if !gotEOF {
		t.Error("no EOF after server close")
	}
}

// TestSegmentAboveWindowIsNotHeld: a peer that ignores the advertised
// window cannot make the receiver hold its bytes. A hand-built data
// segment ending one byte beyond rcv.nxt + transport.BufSize — the
// furthest right edge any window could have named — is dropped by RD,
// counted as a duplicate and re-acknowledged; one ending exactly there
// is still accepted; and the connection carries a transfer afterwards.
func TestSegmentAboveWindowIsNotHeld(t *testing.T) {
	const recvBuf = transport.BufSize
	w := newWorld(t, 33, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var sc *Conn
	var got []byte
	lis.OnAccept = func(c *Conn) {
		sc = c
		c.OnReadable = func() { got = append(got, c.ReadAll()...) }
	}
	cc, _ := w.client.Dial(4, 80)
	w.sim.RunFor(time.Second)
	if sc == nil || sc.State() != "ESTABLISHED" {
		t.Fatal("not established")
	}
	inject := func(endsAt int) {
		payload := make([]byte, 500)
		h := &tcpwire.SubHeader{
			DM: tcpwire.DMSection{SrcPort: cc.LocalPort(), DstPort: 80},
			RD: tcpwire.RDSection{Seq: uint32(sc.rd.peerISN.Add(1 + endsAt - len(payload)))},
		}
		_ = w.topo.Routers[1].Send(4, network.ProtoSubTCP, h.Marshal(payload))
		w.sim.RunFor(time.Second)
	}
	dups := sc.RD().Stats().Get("dup_segments")
	inject(recvBuf + 1)
	inject(1 << 20)
	if n := recvBuf - sc.osr.ra.Free(); n != 0 {
		t.Errorf("segments above the window: %d bytes held in reassembly", n)
	}
	if d := sc.RD().Stats().Get("dup_segments") - dups; d != 2 {
		t.Errorf("dup_segments rose by %d, want 2", d)
	}
	inject(recvBuf)
	if n := recvBuf - sc.osr.ra.Free(); n != 500 {
		t.Errorf("segment ending at the edge of the buffer: %d bytes held, want 500", n)
	}

	// The forged bytes at the edge are zeros; send zeros past them, so
	// the stream reads the same whichever copy of them is delivered.
	msg := make([]byte, recvBuf+20_000)
	rest := msg
	push := func() {
		rest = rest[cc.Write(rest):]
		if len(rest) == 0 {
			cc.Close()
		}
	}
	cc.OnWritable = push
	push()
	w.sim.RunFor(time.Minute)
	if !bytes.Equal(got, msg) || !sc.EOF() {
		t.Fatalf("transfer after the injections: %d of %d bytes, EOF %v", len(got), len(msg), sc.EOF())
	}
}

// TestFinishedConnectionRetainsNoReceiveStorage: the read buffers and
// the reassembly storage live as long as bytes can still arrive and no
// longer — the registry keeps every Conn reachable to the end of a run,
// so what a closed connection retains, ten thousand of them retain.
func TestFinishedConnectionRetainsNoReceiveStorage(t *testing.T) {
	start := func(seed int64) (*world, *Conn, *int) {
		w := newWorld(t, seed, nastyLink(), Config{}, Config{})
		lis, _ := w.server.Listen(80)
		var sc *Conn
		got := new(int)
		lis.OnAccept = func(c *Conn) {
			sc = c
			c.OnReadable = func() { *got += len(c.ReadAll()) }
		}
		cc, _ := w.client.Dial(4, 80)
		toSend := randBytes(200_000, seed)
		push := func() {
			for len(toSend) > 0 {
				n := cc.Write(toSend)
				if n == 0 {
					return
				}
				toSend = toSend[n:]
			}
			cc.Close()
		}
		cc.OnConnected, cc.OnWritable = push, push
		// Run until bytes have been read and a hole is open: read
		// buffers and reassembly storage both exist.
		for step := 0; sc == nil || sc.osr.read.Retained() == 0 || sc.osr.ra.Free() == transport.BufSize; step++ {
			if step == 10_000 {
				t.Fatal("never saw read buffers and a segment held out of order at once")
			}
			w.sim.RunFor(time.Millisecond)
		}
		return w, sc, got
	}

	w, sc, got := start(34)
	w.sim.RunFor(5 * time.Minute)
	if *got != 200_000 || !sc.EOF() {
		t.Fatalf("transfer: %d of 200000 bytes, EOF %v", *got, sc.EOF())
	}
	if r, ra := sc.osr.read.Retained(), sc.osr.ra.Retained(); r != 0 || ra != 0 {
		t.Errorf("after EOF was read: read buffers retain %d bytes, reassembly %d", r, ra)
	}

	_, sc, _ = start(35)
	sc.Abort()
	if r, ra := sc.osr.read.Retained(), sc.osr.ra.Retained(); r != 0 || ra != 0 {
		t.Errorf("after Abort: read buffers retain %d bytes, reassembly %d", r, ra)
	}
}

// TestRefusedFirstSegmentBuildsNothing: a first segment the connection
// manager will not open on — a non-SYN to a handshake listener, such
// as a peer's data still in flight after this end reset the
// connection, or a delayed duplicate of an earlier Watson incarnation
// — builds no connection: no controller, no "conn" family member, no
// abort trace. The handshake answers it with the no-listener RST, as
// for a closed port; Watson drops the duplicate silently.
func TestRefusedFirstSegmentBuildsNothing(t *testing.T) {
	const clientPort = 5000
	for _, tc := range []struct {
		cm   string
		isn  uint32 // of the stray segment
		rsts uint64 // answers expected
	}{
		{CMHandshake, 1, 1},
		{CMWatson, 50, 0},
	} {
		w := newWorld(t, 26, cleanLink(), Config{CM: tc.cm}, Config{CM: tc.cm})
		lis, _ := w.server.Listen(80)
		accepted := 0
		lis.OnAccept = func(*Conn) { accepted++ }
		if tc.cm == CMWatson {
			// A newer incarnation of this flow was accepted before.
			w.server.incarnations.accept(tcpwire.FlowKey{SrcAddr: 4, DstAddr: 1, SrcPort: 80, DstPort: clientPort}, 100)
		}
		stray := &tcpwire.SubHeader{
			DM: tcpwire.DMSection{SrcPort: clientPort, DstPort: 80},
			CM: tcpwire.CMSection{ISN: tc.isn},
			RD: tcpwire.RDSection{Seq: 1000, Ack: 2000, AckValid: true},
		}
		_ = w.topo.Routers[1].Send(4, network.ProtoSubTCP, stray.Marshal([]byte("late data")))
		w.sim.RunFor(time.Second)
		if w.server.connSeq != 0 || accepted != 0 {
			t.Errorf("%s: built %d connections (%d accepted) for a refused first segment", tc.cm, w.server.connSeq, accepted)
		}
		if got := metrics.ViewOf(w.server.dm.m.each).Get("rsts_sent"); got != tc.rsts {
			t.Errorf("%s: %d RSTs sent, want %d", tc.cm, got, tc.rsts)
		}
	}
}
