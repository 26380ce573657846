package sublayered

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ccontrol"
	"repro/internal/metrics"
	"repro/internal/tcpwire"
	"repro/internal/transport"
)

// TestFinishedHandleKeepsItsAnswers: once a connection has finished —
// closed normally, aborted, or waiting out TIME_WAIT — a new connection
// runs on the parts it gave back, and the old handle still answers as
// transport's lifecycle table says: its State, its Err, its EOF, the
// bytes it received and nobody read, and its conn<n>/... samples, none
// of which the new connection's traffic moves. The new stream arrives
// intact.
func TestFinishedHandleKeepsItsAnswers(t *testing.T) {
	reg := metrics.New()
	w := newWorld(t, 5, cleanLink(), Config{Metrics: reg.Scope("c")}, Config{Metrics: reg.Scope("s")})
	lis, err := w.server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []*Conn
	lis.OnAccept = func(c *Conn) { accepted = append(accepted, c) } // nobody reads
	dial := func(data []byte, close bool) *Conn {
		t.Helper()
		c, err := w.client.Dial(4, 80)
		if err != nil {
			t.Fatal(err)
		}
		c.OnConnected = func() {
			c.Write(data)
			if close {
				c.Close()
			}
		}
		w.sim.RunFor(time.Second)
		return c
	}

	// A closes normally, the server half-closing after the client with
	// what it received still unread; the client is in TIME_WAIT.
	aData := randBytes(3000, 1)
	ca := dial(aData, true)
	sa := accepted[0]
	aCC := ca.OSR().CC()
	sa.Close()
	// X is aborted by its client; the server's end dies on the RST.
	xData := randBytes(1000, 2)
	cx := dial(xData, false)
	sx := accepted[1]
	xCC := cx.OSR().CC()
	cx.Abort()
	w.sim.RunFor(time.Second)

	type answer struct {
		state   transport.State
		err     error
		eof     bool
		cc      ccontrol.Controller
		flight  int
		unread  int
		samples string
	}
	ends := []struct {
		name   string
		c      *Conn
		prefix string
		want   answer
	}{
		{"client A", ca, "c/conn0/", answer{state: transport.StateTimeWait, eof: true}},
		{"server A", sa, "s/conn0/", answer{state: transport.StateClosed, unread: len(aData)}},
		{"client X", cx, "c/conn1/", answer{state: transport.StateClosed, err: transport.ErrReset}},
		{"server X", sx, "s/conn1/", answer{state: transport.StateClosed, err: transport.ErrReset, unread: len(xData)}},
	}
	read := func(c *Conn, prefix string) answer {
		var samples []string
		for _, s := range reg.Snapshot().Samples {
			if strings.HasPrefix(s.Name, prefix) {
				samples = append(samples, fmt.Sprint(s))
			}
		}
		return answer{state: c.State(), err: c.Err(), eof: c.EOF(), cc: c.OSR().CC(),
			flight: c.RD().InFlight(), unread: c.osr.read.Len(), samples: strings.Join(samples, "\n")}
	}
	before := make([]answer, len(ends))
	for i, e := range ends {
		before[i] = read(e.c, e.prefix)
		got := before[i]
		got.samples = ""
		if got != e.want {
			t.Errorf("%s reads %+v, want %+v", e.name, got, e.want)
		}
		if before[i].samples == "" {
			t.Errorf("%s has no %s samples", e.name, e.prefix)
		}
	}

	// B streams enough to use every part it takes: the controller, the
	// retransmission queue, the send buffer's storage, the timers.
	bData := randBytes(200_000, 3)
	var bGot []byte
	lis.OnAccept = func(c *Conn) {
		c.OnReadable = func() {
			bGot = append(bGot, c.ReadAll()...)
			if c.EOF() {
				c.Close()
			}
		}
	}
	cb, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	rest := bData
	push := func() {
		rest = rest[cb.Write(rest):]
		if len(rest) == 0 {
			cb.Close()
		}
	}
	var bCC ccontrol.Controller
	cb.OnConnected = func() {
		bCC = cb.OSR().CC()
		push()
	}
	cb.OnWritable = push
	w.sim.RunFor(2 * transport.TimeWait)
	if bCC == nil || (bCC != aCC && bCC != xCC) {
		t.Errorf("B's controller %p is none of the finished connections' (%p, %p)", bCC, aCC, xCC)
	}
	if !bytes.Equal(bGot, bData) {
		t.Errorf("B's stream: %d of %d bytes, intact %v", len(bGot), len(bData), bytes.Equal(bGot, bData[:min(len(bGot), len(bData))]))
	}
	if cb.State() != transport.StateClosed || cb.Err() != nil {
		t.Errorf("B ended %s with %v", cb.State(), cb.Err())
	}

	for i, e := range ends {
		after := read(e.c, e.prefix)
		if e.c == ca {
			// TIME_WAIT has run out since: the normal close's end.
			before[i].state = transport.StateClosed
		}
		if after != before[i] {
			t.Errorf("%s read %+v before B ran, %+v after", e.name, before[i], after)
		}
	}
	// What nobody read is still there, byte for byte; then EOF.
	for _, e := range []struct {
		c    *Conn
		data []byte
	}{{sa, aData}, {sx, xData}} {
		if got := e.c.ReadAll(); !bytes.Equal(got, e.data) {
			t.Errorf("unread bytes: got %d, want %d intact", len(got), len(e.data))
		}
	}
	if !sa.EOF() || sx.EOF() {
		t.Errorf("after reading, EOF is %v for the closed end and %v for the reset one; want true, false", sa.EOF(), sx.EOF())
	}
	// Every part is back with the stacks, each once: two bundles each,
	// one per connection before B, which ran on one of them, holding
	// two distinct controllers; the client's also hold the arrays of
	// the ends that sent.
	for _, s := range []*Stack{w.client, w.server} {
		var bundles []*connParts
		var ccs []ccontrol.Controller
		var outs [][]outSeg
		var sends [][]byte
		for p := s.spare; p != nil; p = p.next {
			bundles = append(bundles, p)
			if p.conn != nil || p.cc == nil {
				t.Errorf("%s: a spare bundle names a connection (%p) or holds no controller", s.Addr(), p.conn)
			}
			ccs = append(ccs, p.cc)
			if p.out != nil {
				outs = append(outs, p.out)
			}
			if p.send != nil {
				sends = append(sends, p.send)
			}
		}
		if len(bundles) != 2 || distinct(bundles, func(p *connParts) any { return p }) != 2 || distinct(ccs, func(cc ccontrol.Controller) any { return cc }) != 2 {
			t.Errorf("%s holds bundles %v with controllers %v, want two distinct of each", s.Addr(), bundles, ccs)
		}
		if n := distinct(outs, func(a []outSeg) any { return &a[:1][0] }); n != len(outs) {
			t.Errorf("%s holds %d retransmission queues, %d distinct", s.Addr(), len(outs), n)
		}
		if n := distinct(sends, func(a []byte) any { return &a[:1][0] }); n != len(sends) {
			t.Errorf("%s holds %d send buffer arrays, %d distinct", s.Addr(), len(sends), n)
		}
		if s == w.client && (len(outs) == 0 || len(sends) == 0) {
			t.Error("the client's retransmission queues and send buffer arrays did not come back")
		}
	}
}

// TestTimeWaitKeepsPartsUntilFinAcked: a connection that reaches
// TIME_WAIT on a segment RD never sees — in CLOSING, a SYN-flagged
// segment that acknowledges our FIN — still holds its controller, so
// the plain ack of the FIN that follows advances RD and reaches OSR's
// controller; only then are the parts given back.
func TestTimeWaitKeepsPartsUntilFinAcked(t *testing.T) {
	w := newWorld(t, 6, cleanLink(), Config{}, Config{})
	lis, err := w.server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	lis.OnAccept = func(*Conn) {}
	cc, err := w.client.Dial(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	w.sim.RunFor(time.Second)
	if cc.State() != transport.StateEstablished {
		t.Fatalf("client %s, want ESTABLISHED", cc.State())
	}
	// Segments go straight to the connection, between simulator
	// events, so the real server's answers cannot interleave.
	cc.Close()
	fin := cc.cm.localFinSeq()
	peer := cc.rd.peerISN.Add(1)
	deliver := func(h tcpwire.SubHeader) {
		t.Helper()
		cc.onSegment(&h, nil, false)
	}
	// The peer's FIN, not acknowledging ours: a simultaneous close.
	deliver(tcpwire.SubHeader{
		CM: tcpwire.CMSection{FIN: true},
		RD: tcpwire.RDSection{Seq: uint32(peer), Ack: uint32(fin), AckValid: true},
	})
	if cc.State() != transport.StateClosing {
		t.Fatalf("after the peer's FIN: %s, want CLOSING", cc.State())
	}
	deliver(tcpwire.SubHeader{
		CM: tcpwire.CMSection{SYN: true},
		RD: tcpwire.RDSection{Seq: uint32(peer.Add(1)), Ack: uint32(fin.Add(1)), AckValid: true},
	})
	if cc.State() != transport.StateTimeWait || cc.OSR().CC() == nil {
		t.Fatalf("after a SYN acking the FIN: %s with controller %v, want TIME_WAIT holding one", cc.State(), cc.OSR().CC())
	}
	deliver(tcpwire.SubHeader{
		RD: tcpwire.RDSection{Seq: uint32(peer.Add(1)), Ack: uint32(fin.Add(1)), AckValid: true},
	})
	if cc.rd.una() != fin.Add(1) || cc.OSR().CC() != nil {
		t.Errorf("after the plain ack: una %d (want %d), controller %v (want given back)", cc.rd.una(), fin.Add(1), cc.OSR().CC())
	}
	w.sim.RunFor(2 * transport.TimeWait)
	if cc.State() != transport.StateClosed || cc.Err() != nil {
		t.Errorf("ended %s with %v, want CLOSED without error", cc.State(), cc.Err())
	}
}

// distinct counts the distinct identities among parts.
func distinct[T any](parts []T, id func(T) any) int {
	seen := make(map[any]bool)
	for _, p := range parts {
		seen[id(p)] = true
	}
	return len(seen)
}
