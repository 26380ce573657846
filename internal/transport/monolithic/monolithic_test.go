package monolithic

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ccontrol"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/verify"
)

type world struct {
	sim    *netsim.Simulator
	topo   *network.Topology
	client *Stack
	server *Stack
}

func newWorld(t testing.TB, seed int64, link netsim.LinkConfig, ccfg, scfg Config) *world {
	t.Helper()
	sim := netsim.NewSimulator(seed)
	edges := []network.Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}, {A: 3, B: 4, Cost: 1}}
	topo := network.BuildTopology(sim, edges, link,
		network.NeighborConfig{HelloInterval: 200 * time.Millisecond},
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		})
	w := &world{sim: sim, topo: topo}
	w.client = NewStack(sim, topo.Routers[1], ccfg)
	w.server = NewStack(sim, topo.Routers[4], scfg)
	sim.RunFor(5 * time.Second)
	return w
}

func cleanLink() netsim.LinkConfig { return netsim.LinkConfig{Delay: 2 * time.Millisecond} }

func nastyLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond,
		LossProb: 0.05, DupProb: 0.02, ReorderProb: 0.05,
	}
}

func randBytes(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

type transferResult struct {
	serverGot, clientGot   []byte
	serverEOF, clientEOF   bool
	clientConn, serverConn *PCB
	clientErr, serverErr   error
}

func runTransfer(t testing.TB, w *world, c2s, s2c []byte, budget time.Duration) *transferResult {
	t.Helper()
	res := &transferResult{}
	lis, err := w.server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	lis.OnAccept = func(sc *PCB) {
		res.serverConn = sc
		toSend := s2c
		push := func() {
			for len(toSend) > 0 {
				n := sc.Write(toSend)
				if n == 0 {
					break
				}
				toSend = toSend[n:]
			}
			if len(toSend) == 0 {
				sc.Close()
			}
		}
		sc.OnConnected = push
		sc.OnWritable = push
		sc.OnReadable = func() {
			res.serverGot = append(res.serverGot, sc.ReadAll()...)
			if sc.EOF() {
				res.serverEOF = true
			}
		}
		sc.OnClosed = func(err error) { res.serverErr = err }
	}
	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	res.clientConn = cc
	toSend := c2s
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
	cc.OnReadable = func() {
		res.clientGot = append(res.clientGot, cc.ReadAll()...)
		if cc.EOF() {
			res.clientEOF = true
		}
	}
	cc.OnClosed = func(err error) { res.clientErr = err }
	w.sim.RunFor(budget)
	return res
}

func TestHandshake(t *testing.T) {
	w := newWorld(t, 1, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var sc *PCB
	lis.OnAccept = func(p *PCB) { sc = p }
	connected := false
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { connected = true }
	w.sim.RunFor(2 * time.Second)
	if !connected || cc.State() != transport.StateEstablished {
		t.Fatalf("client state = %s connected=%v", cc.State(), connected)
	}
	if sc == nil || sc.State() != transport.StateEstablished {
		t.Fatalf("server not established")
	}
}

func TestSmallTransfer(t *testing.T) {
	w := newWorld(t, 2, cleanLink(), Config{}, Config{})
	msg := []byte("monolithic says hi")
	res := runTransfer(t, w, msg, nil, 30*time.Second)
	if !bytes.Equal(res.serverGot, msg) {
		t.Fatalf("got %q", res.serverGot)
	}
	if !res.serverEOF || !res.clientEOF {
		t.Error("missing EOFs")
	}
	if res.clientErr != nil || res.serverErr != nil {
		t.Errorf("close errors: %v %v", res.clientErr, res.serverErr)
	}
}

func TestLargeTransferNasty(t *testing.T) {
	w := newWorld(t, 3, nastyLink(), Config{}, Config{})
	data := randBytes(200_000, 42)
	res := runTransfer(t, w, data, nil, 5*time.Minute)
	if !bytes.Equal(res.serverGot, data) {
		t.Fatalf("got %d of %d bytes", len(res.serverGot), len(data))
	}
	if w.client.Stats().Get("retransmits") == 0 {
		t.Error("no retransmissions on lossy path")
	}
}

func TestBidirectional(t *testing.T) {
	w := newWorld(t, 4, nastyLink(), Config{}, Config{})
	up := randBytes(60_000, 1)
	down := randBytes(50_000, 2)
	res := runTransfer(t, w, up, down, 5*time.Minute)
	if !bytes.Equal(res.serverGot, up) || !bytes.Equal(res.clientGot, down) {
		t.Fatalf("up %d/%d down %d/%d", len(res.serverGot), len(up), len(res.clientGot), len(down))
	}
}

func TestCleanClosePCBsDrain(t *testing.T) {
	w := newWorld(t, 5, cleanLink(), Config{}, Config{})
	res := runTransfer(t, w, []byte("a"), []byte("b"), time.Minute)
	if res.clientErr != nil || res.serverErr != nil {
		t.Errorf("errors %v %v", res.clientErr, res.serverErr)
	}
	if len(w.client.pcbs) != 0 || len(w.server.pcbs) != 0 {
		t.Errorf("pcbs leak: client %d server %d", len(w.client.pcbs), len(w.server.pcbs))
	}
}

func TestConnectRefusedRST(t *testing.T) {
	w := newWorld(t, 6, cleanLink(), Config{}, Config{})
	cc, _ := w.client.Dial(4, 1234)
	var got error
	fired := false
	cc.OnClosed = func(err error) { got = err; fired = true }
	w.sim.RunFor(5 * time.Second)
	if !fired || !errors.Is(got, transport.ErrReset) {
		t.Errorf("err = %v fired=%v", got, fired)
	}
	if st := cc.State(); st != transport.StateClosed {
		t.Errorf("state %s after the reset, want CLOSED", st)
	}
}

func TestHandshakeTimeout(t *testing.T) {
	w := newWorld(t, 7, cleanLink(), Config{}, Config{})
	w.topo.CutLink(1, 2)
	cc, _ := w.client.Dial(4, 80)
	var got error
	cc.OnClosed = func(err error) { got = err }
	// transport.MaxRexmit backed-off SYN retransmissions, most of them
	// at the 60s RTO ceiling: about eight minutes.
	w.sim.RunFor(15 * time.Minute)
	if !errors.Is(got, transport.ErrTimeout) {
		t.Errorf("err = %v", got)
	}
	if st := cc.State(); st != transport.StateClosed {
		t.Errorf("state %s after the timeout, want CLOSED", st)
	}
}

func TestAbortResetsPeer(t *testing.T) {
	w := newWorld(t, 8, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var sp *PCB
	var srvErr error
	lis.OnAccept = func(p *PCB) {
		sp = p
		p.OnClosed = func(err error) { srvErr = err }
	}
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { cc.Abort() }
	w.sim.RunFor(5 * time.Second)
	if !errors.Is(srvErr, transport.ErrReset) {
		t.Errorf("server err = %v", srvErr)
	}
	// One's own abort ends the PCB like the peer's RST does.
	for _, p := range []*PCB{cc, sp} {
		if p.State() != transport.StateClosed || p.Err() != transport.ErrReset {
			t.Errorf("after the abort: state %s, err %v; want CLOSED, transport.ErrReset", p.State(), p.Err())
		}
	}
}

// TestFlowControlTinyReceiver: a reader far slower than the sender
// fills the receive buffer, and the transfer still completes through
// window updates and persist probes.
func TestFlowControlTinyReceiver(t *testing.T) {
	w := newWorld(t, 9, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var srv *PCB
	var got []byte
	lis.OnAccept = func(p *PCB) { srv = p }
	w.sim.Every(250*time.Millisecond, func() {
		if srv == nil {
			return
		}
		buf := make([]byte, 2000)
		n, _ := srv.Read(buf)
		got = append(got, buf[:n]...)
	})
	data := randBytes(transport.BufSize+30_000, 5)
	cc, _ := w.client.Dial(4, 80)
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
	w.sim.RunFor(3 * time.Minute)
	for {
		buf := make([]byte, 4000)
		n, open := srv.Read(buf)
		got = append(got, buf[:n]...)
		if n == 0 || !open {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %d of %d", len(got), len(data))
	}
}

func TestMultipleConnections(t *testing.T) {
	w := newWorld(t, 10, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	got := make(map[uint16][]byte)
	lis.OnAccept = func(p *PCB) {
		p.OnReadable = func() { got[p.RemotePort()] = append(got[p.RemotePort()], p.ReadAll()...) }
	}
	want := map[uint16][]byte{}
	for i := 0; i < 4; i++ {
		cc, err := w.client.Dial(4, 80)
		if err != nil {
			t.Fatal(err)
		}
		msg := randBytes(3000, int64(i))
		want[cc.LocalPort()] = msg
		c, m := cc, msg
		cc.OnConnected = func() { c.Write(m); c.Close() }
	}
	w.sim.RunFor(time.Minute)
	if len(got) != 4 {
		t.Fatalf("saw %d connections", len(got))
	}
	for port, data := range want {
		if !bytes.Equal(got[port], data) {
			t.Errorf("port %d mismatch", port)
		}
	}
}

// TestStateStrings: a PCB reports its state in the shared transport
// vocabulary, printed by RFC 793 name.
func TestStateStrings(t *testing.T) {
	for st, want := range map[transport.State]string{
		transport.StateEstablished: "ESTABLISHED",
		transport.StateTimeWait:    "TIME_WAIT",
	} {
		if got := (&PCB{state: st}).State().String(); got != want {
			t.Errorf("PCB in state %d prints %q, want %q", int(st), got, want)
		}
	}
}

// TestGarbageSegmentsDoNotPanic: random and truncated bytes into
// tcpInput never panic, never break a live connection, and bad
// checksums are counted.
func TestGarbageSegmentsDoNotPanic(t *testing.T) {
	w := newWorld(t, 11, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var got []byte
	lis.OnAccept = func(p *PCB) {
		p.OnReadable = func() { got = append(got, p.ReadAll()...) }
	}
	cc, _ := w.client.Dial(4, 80)
	msg := randBytes(20_000, 4)
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

	rng := rand.New(rand.NewSource(5))
	w.sim.Every(20*time.Millisecond, func() {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		_ = w.topo.Routers[1].Send(4, network.ProtoTCP, junk)
	})
	w.sim.RunFor(time.Minute)

	if !bytes.Equal(got, msg) {
		t.Fatalf("transfer corrupted by garbage (%d of %d)", len(got), len(msg))
	}
	if w.server.Stats().Get("checksum_errors") == 0 {
		t.Error("no checksum errors counted despite noise")
	}
}

// TestForgedAckBeyondSndNxtIgnored: the ack-validity bound holds.
func TestForgedAckBeyondSndNxtIgnored(t *testing.T) {
	w := newWorld(t, 12, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	lis.OnAccept = func(p *PCB) {}
	cc, _ := w.client.Dial(4, 80)
	w.sim.RunFor(time.Second)
	if cc.State() != transport.StateEstablished {
		t.Fatal("not established")
	}
	before := cc.sndUna
	h := &tcpwire.TCPHeader{
		SrcPort: 80, DstPort: cc.LocalPort(),
		Seq: uint32(cc.rcvNxt), Ack: uint32(before.Add(1 << 20)),
		Flags: tcpwire.FlagACK, WScale: -1,
	}
	wire := h.Marshal(nil, 4, 1)
	_ = w.topo.Routers[4].Send(1, network.ProtoTCP, wire)
	w.sim.RunFor(time.Second)
	if cc.sndUna != before {
		t.Errorf("forged ack advanced snd_una: %d → %d", before, cc.sndUna)
	}
}

// TestPCBInvariantsHold: the monolithic whole-block contract holds
// across a lossy bidirectional transfer.
func TestPCBInvariantsHold(t *testing.T) {
	ck := verify.NewChecker(verify.ModePanic)
	cfg := Config{Contracts: ck}
	w := newWorld(t, 13, nastyLink(), cfg, cfg)
	up := randBytes(60_000, 13)
	down := randBytes(40_000, 14)
	res := runTransfer(t, w, up, down, 5*time.Minute)
	if !bytes.Equal(res.serverGot, up) || !bytes.Equal(res.clientGot, down) {
		t.Fatal("transfer failed under contracts")
	}
	if ck.Checks() == 0 {
		t.Fatal("no contract evaluations")
	}
}

// TestPCBContractCannotLocalize: the same class of injected bug that
// the sublayered contracts pin on "osr/" here only reports a generic
// "pcb/" inconsistency — the contrast the paper draws between
// monolithic and sublayered reasoning.
func TestPCBContractCannotLocalize(t *testing.T) {
	ck := verify.NewChecker(verify.ModeRecord)
	cfg := Config{Contracts: ck}
	w := newWorld(t, 14, cleanLink(), cfg, cfg)
	lis, _ := w.server.Listen(80)
	lis.OnAccept = func(p *PCB) {}
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { cc.Write(randBytes(5000, 1)) }
	w.sim.RunFor(2 * time.Second)
	// Same shape of bug as the sublayered localization test.
	cc.nextSend = cc.ackedOffset() + 1<<20
	cc.Write([]byte("poke"))
	w.sim.RunFor(2 * time.Second)
	if len(ck.Violations()) == 0 {
		t.Fatal("injected bug not caught")
	}
	for _, v := range ck.Violations() {
		if !strings.HasPrefix(v.Name, "pcb/") {
			t.Errorf("violation %q not pcb-scoped", v.Name)
		}
	}
}

// TestCCSwapCompletesTransfer drives every registered controller
// through the lossy link via Config.CC — the monolithic counterpart of
// the sublayered registry-swap test. The swap works, but unlike the
// sublayered stack it rides glue threaded through tcp_receive,
// tcp_output and the retransmission timer (see E6's blast radius).
func TestCCSwapCompletesTransfer(t *testing.T) {
	for _, name := range ccontrol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, 42, nastyLink(), Config{CC: name}, Config{CC: name})
			data := randBytes(120_000, 7)
			res := runTransfer(t, w, data, nil, 10*time.Minute)
			if !bytes.Equal(res.serverGot, data) {
				t.Fatalf("transfer corrupt or incomplete: %d/%d bytes", len(res.serverGot), len(data))
			}
			if got := res.clientConn.cc.Name(); got != name {
				t.Errorf("controller = %q, want %q", got, name)
			}
		})
	}
}

// TestSegmentAboveWindowIsNotHeld: a peer that ignores the advertised
// window cannot make the receiver hold its bytes. A hand-built data
// segment ending one byte beyond rcv_nxt + transport.BufSize is dropped
// and re-acknowledged; one ending exactly there is still accepted; and
// the connection carries a transfer afterwards.
func TestSegmentAboveWindowIsNotHeld(t *testing.T) {
	const recvBuf = transport.BufSize
	w := newWorld(t, 14, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var sp *PCB
	var got []byte
	lis.OnAccept = func(p *PCB) {
		sp = p
		p.OnReadable = func() { got = append(got, p.ReadAll()...) }
	}
	cc, _ := w.client.Dial(4, 80)
	w.sim.RunFor(time.Second)
	if sp == nil || sp.State() != transport.StateEstablished {
		t.Fatal("not established")
	}
	inject := func(endsAt int) {
		payload := make([]byte, 500)
		h := &tcpwire.TCPHeader{
			SrcPort: cc.LocalPort(), DstPort: 80,
			Seq: uint32(sp.rcvNxt.Add(endsAt - len(payload))), Ack: uint32(sp.sndNxt),
			Flags: tcpwire.FlagACK, WScale: -1,
		}
		_ = w.topo.Routers[1].Send(4, network.ProtoTCP, h.Marshal(payload, 1, 4))
		w.sim.RunFor(time.Second)
	}
	inject(recvBuf + 1)
	inject(1 << 20)
	if n := recvBuf - sp.reasm.Free(); n != 0 {
		t.Errorf("segments above the window: %d bytes held in reassembly", n)
	}
	inject(recvBuf)
	if n := recvBuf - sp.reasm.Free(); n != 500 {
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
	if !bytes.Equal(got, msg) || !sp.EOF() {
		t.Fatalf("transfer after the injections: %d of %d bytes, EOF %v", len(got), len(msg), sp.EOF())
	}
}

// TestFinishedPCBRetainsNoReceiveStorage: the read buffers and the
// reassembly storage live as long as bytes can still arrive and no
// longer, whether the stream ends or the PCB is aborted with a hole
// open.
func TestFinishedPCBRetainsNoReceiveStorage(t *testing.T) {
	start := func(seed int64) (*world, *PCB, *int) {
		w := newWorld(t, seed, nastyLink(), Config{}, Config{})
		lis, _ := w.server.Listen(80)
		var sp *PCB
		got := new(int)
		lis.OnAccept = func(p *PCB) {
			sp = p
			p.OnReadable = func() { *got += len(p.ReadAll()) }
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
		for step := 0; sp == nil || sp.read.Retained() == 0 || sp.reasm.Free() == transport.BufSize; step++ {
			if step == 10_000 {
				t.Fatal("never saw read buffers and a segment held out of order at once")
			}
			w.sim.RunFor(time.Millisecond)
		}
		return w, sp, got
	}

	w, sp, got := start(15)
	w.sim.RunFor(5 * time.Minute)
	if *got != 200_000 || !sp.EOF() {
		t.Fatalf("transfer: %d of 200000 bytes, EOF %v", *got, sp.EOF())
	}
	if r, ra := sp.read.Retained(), sp.reasm.Retained(); r != 0 || ra != 0 {
		t.Errorf("after EOF was read: read buffers retain %d bytes, reassembly %d", r, ra)
	}

	_, sp, _ = start(16)
	sp.Abort()
	if r, ra := sp.read.Retained(), sp.reasm.Retained(); r != 0 || ra != 0 {
		t.Errorf("after Abort: read buffers retain %d bytes, reassembly %d", r, ra)
	}
}
