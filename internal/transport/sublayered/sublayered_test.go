package sublayered

import (
	"bytes"
	"errors"
	"math/rand"
	"repro/internal/metrics"
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

// world is the test substrate: a simulated multi-hop network with two
// end hosts (addresses 1 and 4) across two routers.
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
	sim.RunFor(5 * time.Second) // routing convergence
	return w
}

func cleanLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: 2 * time.Millisecond}
}

func nastyLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		Delay:       2 * time.Millisecond,
		Jitter:      time.Millisecond,
		LossProb:    0.05,
		DupProb:     0.02,
		ReorderProb: 0.05,
	}
}

func randBytes(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// runTransfer drives data from the client to the server (and optionally
// back), closing when done, and returns what each side received.
type transferResult struct {
	serverGot  []byte
	clientGot  []byte
	serverEOF  bool
	clientEOF  bool
	clientConn *Conn
	serverConn *Conn
	clientErr  error
	serverErr  error
	closedOK   int
	// clientCC names the client's congestion controller, read when it
	// connected: a closed connection has given its controller back.
	clientCC string
}

func runTransfer(t testing.TB, w *world, c2s, s2c []byte, budget time.Duration) *transferResult {
	t.Helper()
	res := &transferResult{}
	lis, err := w.server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	lis.OnAccept = func(sc *Conn) {
		res.serverConn = sc
		toSend := s2c
		pushSrv := func() {
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
		sc.OnConnected = pushSrv
		sc.OnWritable = pushSrv
		sc.OnReadable = func() {
			res.serverGot = append(res.serverGot, sc.ReadAll()...)
			if sc.EOF() {
				res.serverEOF = true
			}
		}
		sc.OnClosed = func(err error) {
			res.serverErr = err
			if err == nil {
				res.closedOK++
			}
		}
	}
	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	res.clientConn = cc
	toSend := c2s
	pushCli := func() {
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
	cc.OnConnected = func() {
		res.clientCC = cc.OSR().CC().Name()
		pushCli()
	}
	cc.OnWritable = pushCli
	cc.OnReadable = func() {
		res.clientGot = append(res.clientGot, cc.ReadAll()...)
		if cc.EOF() {
			res.clientEOF = true
		}
	}
	cc.OnClosed = func(err error) {
		res.clientErr = err
		if err == nil {
			res.closedOK++
		}
	}
	w.sim.RunFor(budget)
	return res
}

func TestHandshakeEstablishes(t *testing.T) {
	w := newWorld(t, 1, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var serverConn *Conn
	lis.OnAccept = func(c *Conn) { serverConn = c }
	connected := false
	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	cc.OnConnected = func() { connected = true }
	w.sim.RunFor(2 * time.Second)
	if !connected {
		t.Fatal("client never connected")
	}
	if cc.State() != transport.StateEstablished {
		t.Errorf("client state = %s", cc.State())
	}
	if serverConn == nil || serverConn.State() != transport.StateEstablished {
		t.Errorf("server state = %v", serverConn)
	}
	if cc.LocalPort() < 49152 || cc.RemotePort() != 80 {
		t.Errorf("ports = %d → %d", cc.LocalPort(), cc.RemotePort())
	}
}

func TestSmallTransferClean(t *testing.T) {
	w := newWorld(t, 2, cleanLink(), Config{}, Config{})
	msg := []byte("hello sublayered world")
	res := runTransfer(t, w, msg, nil, 10*time.Second)
	if !bytes.Equal(res.serverGot, msg) {
		t.Fatalf("server got %q", res.serverGot)
	}
	if !res.serverEOF || !res.clientEOF {
		t.Errorf("EOF: server %v client %v", res.serverEOF, res.clientEOF)
	}
}

// TestE3LargeTransferNasty is the core E3 claim: the byte stream
// received equals the byte stream sent across a lossy, duplicating,
// reordering multi-hop network.
func TestE3LargeTransferNasty(t *testing.T) {
	w := newWorld(t, 3, nastyLink(), Config{}, Config{})
	data := randBytes(200_000, 42)
	res := runTransfer(t, w, data, nil, 5*time.Minute)
	if len(res.serverGot) != len(data) {
		t.Fatalf("server got %d of %d bytes", len(res.serverGot), len(data))
	}
	if !bytes.Equal(res.serverGot, data) {
		t.Fatal("byte stream corrupted")
	}
	if !res.serverEOF {
		t.Error("no EOF at server")
	}
	// Loss must have caused retransmissions — the machinery really ran.
	if res.clientConn.RD().Stats().Get("retransmits") == 0 {
		t.Error("no retransmissions on a lossy path (suspicious)")
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	w := newWorld(t, 4, nastyLink(), Config{}, Config{})
	up := randBytes(60_000, 1)
	down := randBytes(80_000, 2)
	res := runTransfer(t, w, up, down, 5*time.Minute)
	if !bytes.Equal(res.serverGot, up) {
		t.Errorf("upstream: got %d of %d", len(res.serverGot), len(up))
	}
	if !bytes.Equal(res.clientGot, down) {
		t.Errorf("downstream: got %d of %d", len(res.clientGot), len(down))
	}
	if !res.serverEOF || !res.clientEOF {
		t.Error("missing EOFs")
	}
}

func TestCleanCloseBothSides(t *testing.T) {
	w := newWorld(t, 5, cleanLink(), Config{}, Config{})
	res := runTransfer(t, w, []byte("x"), []byte("y"), 60*time.Second)
	if res.closedOK < 1 {
		t.Errorf("closedOK = %d", res.closedOK)
	}
	if res.clientErr != nil || res.serverErr != nil {
		t.Errorf("errors: client %v server %v", res.clientErr, res.serverErr)
	}
	// Demux tables drain (TIME_WAIT expires within the budget).
	if n := len(w.client.dm.conns); n != 0 {
		t.Errorf("client demux still holds %d conns", n)
	}
	if n := len(w.server.dm.conns); n != 0 {
		t.Errorf("server demux still holds %d conns", n)
	}
}

// TestE8CongestionControlSwap: every congestion controller passes the
// same lossy transfer with no change outside OSR.
func TestE8CongestionControlSwap(t *testing.T) {
	for _, name := range []string{"newreno", "rate-based", "fixed"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := Config{CC: name}
			w := newWorld(t, 6, nastyLink(), cfg, cfg)
			data := randBytes(80_000, 9)
			res := runTransfer(t, w, data, nil, 5*time.Minute)
			if !bytes.Equal(res.serverGot, data) {
				t.Fatalf("%s: got %d of %d bytes", name, len(res.serverGot), len(data))
			}
			if got := res.clientCC; got != name {
				t.Errorf("CC name = %s", got)
			}
		})
	}
}

// TestE8ISNSwap: connection management's ISN mechanism swaps freely.
func TestE8ISNSwap(t *testing.T) {
	for _, tc := range []struct{ name, cm string }{
		{"rfc793-clock", CMClockHandshake},
		{"rfc1948-crypto", CMHandshake},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{CM: tc.cm}
			w := newWorld(t, 7, nastyLink(), cfg, cfg)
			data := randBytes(30_000, 3)
			res := runTransfer(t, w, data, nil, 3*time.Minute)
			if !bytes.Equal(res.serverGot, data) {
				t.Fatalf("%s: transfer failed (%d of %d)", tc.name, len(res.serverGot), len(data))
			}
		})
	}
}

func TestNativeSACKTransfer(t *testing.T) {
	cfg := Config{NativeSACK: true}
	w := newWorld(t, 8, nastyLink(), cfg, cfg)
	data := randBytes(100_000, 4)
	res := runTransfer(t, w, data, nil, 5*time.Minute)
	if !bytes.Equal(res.serverGot, data) {
		t.Fatalf("SACK transfer failed (%d of %d)", len(res.serverGot), len(data))
	}
}

func TestMultipleConcurrentConnections(t *testing.T) {
	w := newWorld(t, 9, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	got := make(map[uint16][]byte) // remote port → bytes
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() {
			got[c.RemotePort()] = append(got[c.RemotePort()], c.ReadAll()...)
		}
	}
	msgs := map[int][]byte{}
	for i := 0; i < 5; i++ {
		cc, err := w.client.Dial(4, 80)
		if err != nil {
			t.Fatal(err)
		}
		msg := randBytes(5000, int64(100+i))
		msgs[int(cc.LocalPort())] = msg
		m := msg
		c := cc
		cc.OnConnected = func() {
			c.Write(m)
			c.Close()
		}
	}
	w.sim.RunFor(30 * time.Second)
	if len(got) != 5 {
		t.Fatalf("server saw %d connections", len(got))
	}
	for port, data := range got {
		if !bytes.Equal(data, msgs[int(port)]) {
			t.Errorf("conn from port %d corrupted (%d vs %d bytes)", port, len(data), len(msgs[int(port)]))
		}
	}
}

func TestConnectToClosedPortResets(t *testing.T) {
	w := newWorld(t, 10, cleanLink(), Config{}, Config{})
	cc, err := w.client.Dial(4, 9999) // nothing listening
	if err != nil {
		t.Fatal(err)
	}
	var closedErr error
	gotClose := false
	cc.OnClosed = func(err error) { closedErr = err; gotClose = true }
	w.sim.RunFor(5 * time.Second)
	if !gotClose {
		t.Fatal("connection never failed")
	}
	if !errors.Is(closedErr, transport.ErrReset) {
		t.Errorf("err = %v, want transport.ErrReset", closedErr)
	}
	if st := cc.State(); st != transport.StateClosed {
		t.Errorf("state %s after the reset, want CLOSED", st)
	}
	if metrics.ViewOf(w.server.dm.m.each).Get("rsts_sent") == 0 {
		t.Error("server sent no RST")
	}
}

func TestHandshakeTimeoutWhenUnreachable(t *testing.T) {
	w := newWorld(t, 11, cleanLink(), Config{}, Config{})
	// Cut the first hop entirely.
	w.topo.CutLink(1, 2)
	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	var closedErr error
	cc.OnClosed = func(err error) { closedErr = err }
	// cmMaxAttempts backed-off SYNs take about a minute and a half.
	w.sim.RunFor(2 * time.Minute)
	if !errors.Is(closedErr, transport.ErrTimeout) {
		t.Errorf("err = %v, want transport.ErrTimeout", closedErr)
	}
	if st := cc.State(); st != transport.StateClosed {
		t.Errorf("state %s after the timeout, want CLOSED", st)
	}
	if n := cc.cm.(*HandshakeCM).Stats().Get("syn_retransmits"); n != cmMaxAttempts {
		t.Errorf("syn_retransmits = %d, want %d", n, cmMaxAttempts)
	}
}

func TestFlowControlSmallReceiverWindow(t *testing.T) {
	// A reader that drains far slower than the sender fills the receive
	// buffer: the transfer must still complete (window updates +
	// persist probes).
	w := newWorld(t, 12, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var srv *Conn
	var got []byte
	lis.OnAccept = func(c *Conn) { srv = c }
	// Drain only every 250ms, 2KB at a time.
	w.sim.Every(250*time.Millisecond, func() {
		if srv == nil {
			return
		}
		buf := make([]byte, 2000)
		n, _ := srv.Read(buf)
		got = append(got, buf[:n]...)
	})
	data := randBytes(transport.BufSize+40_000, 5)
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
	w.sim.RunFor(2 * time.Minute)
	// Drain the tail.
	for {
		buf := make([]byte, 4000)
		n, open := srv.Read(buf)
		got = append(got, buf[:n]...)
		if n == 0 || !open {
			break
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("flow-controlled transfer: got %d of %d bytes", len(got), len(data))
	}
	// The receiver's window must actually have closed at some point.
	if res := cc.OSR().Stats(); res.Get("window_stalls") == 0 {
		t.Error("sender never stalled on the receive window")
	}
}

func TestWriteBeforeConnectIsBuffered(t *testing.T) {
	w := newWorld(t, 13, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var got []byte
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() { got = append(got, c.ReadAll()...) }
	}
	cc, _ := w.client.Dial(4, 80)
	msg := []byte("early bytes")
	if n := cc.Write(msg); n != len(msg) {
		t.Fatalf("early write accepted %d", n)
	}
	w.sim.RunFor(5 * time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestListenPortConflict(t *testing.T) {
	w := newWorld(t, 14, cleanLink(), Config{}, Config{})
	if _, err := w.server.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := w.server.Listen(80); err == nil {
		t.Error("duplicate Listen succeeded")
	}
}

func TestAbortSendsRST(t *testing.T) {
	w := newWorld(t, 15, cleanLink(), Config{}, Config{})
	lis, _ := w.server.Listen(80)
	var sc *Conn
	var srvErr error
	haveErr := false
	lis.OnAccept = func(c *Conn) {
		sc = c
		c.OnClosed = func(err error) { srvErr = err; haveErr = true }
	}
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { cc.Abort() }
	w.sim.RunFor(5 * time.Second)
	if !haveErr || !errors.Is(srvErr, transport.ErrReset) {
		t.Errorf("server err = %v (have=%v)", srvErr, haveErr)
	}
	// One's own abort ends the connection like the peer's RST does.
	for _, c := range []*Conn{cc, sc} {
		if c.State() != transport.StateClosed || c.Err() != transport.ErrReset {
			t.Errorf("after the abort: state %s, err %v; want CLOSED, transport.ErrReset", c.State(), c.Err())
		}
	}
}

func TestISNGenerators(t *testing.T) {
	key := tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 3, DstPort: 4}
	// Clock ISNs advance with time.
	c := ClockISN{}
	a := c.ISN(key, 0)
	b := c.ISN(key, netsim.Time(time.Second))
	if b <= a {
		t.Errorf("clock ISN not monotonic: %d then %d", a, b)
	}
	// Crypto ISNs differ across tuples and secrets.
	g1 := &CryptoISN{Secret: [16]byte{1}}
	g2 := &CryptoISN{Secret: [16]byte{2}}
	if g1.ISN(key, 0) == g2.ISN(key, 0) {
		t.Error("different secrets produced identical ISN")
	}
	key2 := key
	key2.DstPort = 5
	if g1.ISN(key, 0) == g1.ISN(key2, 0) {
		t.Error("different tuples produced identical ISN")
	}
	// And advance with the clock too.
	if g1.ISN(key, netsim.Time(time.Second)) == g1.ISN(key, 0) {
		t.Error("crypto ISN ignores clock")
	}
}

// TestCMStateStrings: a connection reports its manager's state in the
// shared transport vocabulary under either scheme, printed by RFC 793
// name, and a state outside the FSM still prints.
func TestCMStateStrings(t *testing.T) {
	for st, want := range map[transport.State]string{
		transport.StateEstablished: "ESTABLISHED",
		transport.StateTimeWait:    "TIME_WAIT",
		transport.State(99):        "State(99)",
	} {
		for _, cm := range []ConnManager{&HandshakeCM{cmCore{st: st}}, &TimerCM{cmCore: cmCore{st: st}}} {
			if got := (&Conn{cm: cm}).State().String(); got != want {
				t.Errorf("%T in state %d prints %q, want %q", cm, int(st), got, want)
			}
		}
	}
}

// TestCongestionWindowGrowsAndShrinks smoke-tests the default
// controller OSR drives (detailed per-controller coverage lives in
// internal/ccontrol).
func TestCongestionWindowGrowsAndShrinks(t *testing.T) {
	cc := ccontrol.NewNewReno(1000)
	w0 := cc.Window()
	// Slow start doubles per window.
	cc.OnAck(ccontrol.AckSample{Acked: 1000, RTT: time.Millisecond})
	if cc.Window() <= w0 {
		t.Error("no slow-start growth")
	}
	grown := cc.Window()
	cc.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossFast})
	if cc.Window() >= grown {
		t.Error("no multiplicative decrease")
	}
	cc.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossTimeout})
	if cc.Window() != 1000 {
		t.Errorf("timeout window = %d, want 1 MSS", cc.Window())
	}
	// Congestion avoidance: needs a window's worth of acks per MSS.
	cc2 := ccontrol.NewNewReno(1000)
	cc2.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossFast}) // ssthresh → 2*mss → CA
	w1 := cc2.Window()
	cc2.OnAck(ccontrol.AckSample{Acked: w1, RTT: time.Millisecond})
	if cc2.Window() != w1+1000 {
		t.Errorf("CA growth: %d → %d", w1, cc2.Window())
	}
	cc2.OnECN()
	if cc2.Window() >= w1+1000 {
		t.Error("ECN did not shrink window")
	}
}

func TestRateBasedWindowTracksRTT(t *testing.T) {
	cc := ccontrol.NewRateBased(1000)
	w0 := cc.Window()
	for i := 0; i < 50; i++ {
		cc.OnAck(ccontrol.AckSample{Acked: 10000, RTT: 100 * time.Millisecond})
	}
	if cc.Window() <= w0 {
		t.Error("rate never increased")
	}
	grown := cc.Window()
	for i := 0; i < 10; i++ {
		cc.OnLoss(ccontrol.LossEvent{Kind: ccontrol.LossFast})
	}
	if cc.Window() >= grown {
		t.Error("rate never decreased")
	}
	if cc.Window() < 2*1000 {
		t.Error("window below floor")
	}
}

// TestRegistrySwapCompletesTransfer drives every registered controller
// — including the ones the old interface could not express (cubic's
// clock, bbrlite's delivery-rate pacing) — through a lossy, reordering
// link purely via Config.CC. A pure OSR policy swap: no other sublayer
// is configured differently.
func TestRegistrySwapCompletesTransfer(t *testing.T) {
	for _, name := range ccontrol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, 42, nastyLink(), Config{CC: name}, Config{CC: name})
			data := randBytes(120_000, 7)
			res := runTransfer(t, w, data, nil, 10*time.Minute)
			if !bytes.Equal(res.serverGot, data) {
				t.Fatalf("transfer corrupt or incomplete: %d/%d bytes", len(res.serverGot), len(data))
			}
			if got := res.clientCC; got != name {
				t.Errorf("controller = %q, want %q", got, name)
			}
		})
	}
}

// TestE8TimerCM: Watson-style timer-based connection management swaps
// in for the three-way handshake with no change to RD, OSR or DM —
// and saves the handshake round trip.
func TestE8TimerCM(t *testing.T) {
	cfg := Config{CM: CMWatson}
	w := newWorld(t, 16, nastyLink(), cfg, cfg)
	data := randBytes(60_000, 7)
	res := runTransfer(t, w, data, nil, 5*time.Minute)
	if !bytes.Equal(res.serverGot, data) {
		t.Fatalf("timer CM transfer failed (%d of %d)", len(res.serverGot), len(data))
	}
	if !res.serverEOF {
		t.Error("no EOF")
	}
	if _, ok := res.clientConn.cm.(*TimerCM); !ok {
		t.Errorf("CM = %T", res.clientConn.cm)
	}
}

// TestTimerCMNoHandshakeRoundTrip: with timer-based CM the first data
// byte arrives in roughly one one-way latency; with the handshake it
// needs one and a half round trips.
func TestTimerCMNoHandshakeRoundTrip(t *testing.T) {
	measure := func(cfg Config) time.Duration {
		w := newWorld(t, 17, cleanLink(), cfg, cfg)
		lis, _ := w.server.Listen(80)
		var arrival netsim.Time
		lis.OnAccept = func(c *Conn) {
			c.OnReadable = func() {
				if arrival == 0 {
					arrival = w.sim.Now()
				}
			}
		}
		start := w.sim.Now()
		cc, _ := w.client.Dial(4, 80)
		cc.OnConnected = func() { cc.Write([]byte("first byte")) }
		if cc.State() == transport.StateEstablished {
			cc.Write([]byte("first byte"))
		}
		w.sim.RunFor(5 * time.Second)
		if arrival == 0 {
			t.Fatal("data never arrived")
		}
		return time.Duration(arrival - start)
	}
	timerTime := measure(Config{CM: CMWatson})
	handshakeTime := measure(Config{})
	if timerTime >= handshakeTime {
		t.Errorf("timer CM (%v) not faster than handshake (%v)", timerTime, handshakeTime)
	}
}

// TestIncarnationRegistryRejectsStale: the Watson scheme's protection
// against delayed duplicates from earlier incarnations.
func TestIncarnationRegistryRejectsStale(t *testing.T) {
	reg := make(incarnations)
	key := tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 3, DstPort: 4}
	if !reg.accept(key, 100) {
		t.Fatal("fresh incarnation rejected")
	}
	if reg.accept(key, 100) {
		t.Error("same ISN accepted twice")
	}
	if reg.accept(key, 50) {
		t.Error("stale incarnation accepted")
	}
	if !reg.accept(key, 200) {
		t.Error("newer incarnation rejected")
	}
}

// TestContractsHoldUnderStress: every sublayer's invariants hold after
// every segment of a lossy bidirectional transfer (panic mode).
func TestContractsHoldUnderStress(t *testing.T) {
	ck := verify.NewChecker(verify.ModePanic)
	cfg := Config{Contracts: ck}
	w := newWorld(t, 18, nastyLink(), cfg, cfg)
	up := randBytes(60_000, 8)
	down := randBytes(40_000, 9)
	res := runTransfer(t, w, up, down, 5*time.Minute)
	if !bytes.Equal(res.serverGot, up) || !bytes.Equal(res.clientGot, down) {
		t.Fatal("transfer failed under contracts")
	}
	if ck.Checks() == 0 {
		t.Fatal("no contract evaluations happened")
	}
	t.Logf("contract evaluations: %d, violations: 0", ck.Checks())
}

// TestContractsLocalizeInjectedBug: corrupt one sublayer's state and
// the violation names that sublayer — the paper's debugging claim.
func TestContractsLocalizeInjectedBug(t *testing.T) {
	ck := verify.NewChecker(verify.ModeRecord)
	cfg := Config{Contracts: ck}
	w := newWorld(t, 19, cleanLink(), cfg, cfg)
	lis, _ := w.server.Listen(80)
	var srv *Conn
	lis.OnAccept = func(c *Conn) { srv = c }
	cc, _ := w.client.Dial(4, 80)
	cc.OnConnected = func() { cc.Write(randBytes(5000, 1)) }
	w.sim.RunFor(2 * time.Second)
	if srv == nil {
		t.Fatal("no server conn")
	}
	// Inject a bug into OSR's state: pretend more was acked than sent.
	cc.osr.cumAcked = cc.osr.nextSeg + 999
	cc.Write([]byte("poke")) // trigger activity
	w.sim.RunFor(2 * time.Second)
	found := false
	for _, v := range ck.Violations() {
		if strings.HasPrefix(v.Name, "osr/") {
			found = true
		}
		if strings.HasPrefix(v.Name, "rd/") || strings.HasPrefix(v.Name, "cm/") {
			t.Errorf("bug misattributed to %s", v.Name)
		}
	}
	if !found {
		t.Fatal("injected OSR bug not caught by OSR's contract")
	}
}
