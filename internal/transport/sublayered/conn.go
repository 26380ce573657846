package sublayered

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// Conn is one sublayered TCP connection: the composition of the four
// §3 sublayers, each owning disjoint state, wired together by exactly
// the narrow interfaces the paper draws in Fig. 5. Conn itself holds
// no protocol state — it is the wiring harness plus the application
// byte-stream API.
//
// DM's per-connection half, RD and OSR are values inside the Conn, and
// what they are built from (RTT estimator and histogram, send buffer,
// reassembly, read buffer) values inside them: a sublayer's state has
// one fixed type, so it needs no object of its own, and a connection
// costs one allocation where it used to cost a dozen. Where the bytes
// live does not change who may touch them — each sublayer still reads
// and writes only its own fields and reaches its neighbours through
// their methods, which is what the T3 litmus (TestDisjointState), the
// T2 litmus (TestNarrowInterfaces) and the contracts check. The two
// parts that are replaceable by design stay behind interfaces: the
// connection manager here, the congestion controller inside OSR.
type Conn struct {
	stack *Stack

	dm  dmConn
	cm  ConnManager
	rd  RD
	osr OSR

	// crossings counts traffic over each inter-sublayer boundary —
	// the raw material of the E9 hardware-offload analysis: a
	// partition at a boundary turns these into bus transactions.
	crossings Crossings

	// Application callbacks, all optional, invoked from the event loop.
	OnConnected func()
	OnReadable  func()
	OnWritable  func()
	OnClosed    func(err error)
}

// Callbacks sets all four application callbacks at once; with it Conn
// satisfies transport.Conn.
func (c *Conn) Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error)) {
	c.OnConnected, c.OnReadable, c.OnWritable, c.OnClosed = onConnected, onReadable, onWritable, onClosed
}

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() uint16 { return c.dm.key.SrcPort }

// RemotePort returns the connection's remote port.
func (c *Conn) RemotePort() uint16 { return c.dm.key.DstPort }

// State reports the connection-management state.
func (c *Conn) State() transport.State { return c.cm.state() }

// Err returns the terminal error, if the connection died.
func (c *Conn) Err() error { return c.cm.cause() }

// RD exposes the reliable-delivery sublayer for stats and tests.
func (c *Conn) RD() *RD { return &c.rd }

// OSR exposes the ordering/segmenting/rate sublayer for stats and
// tests.
func (c *Conn) OSR() *OSR { return &c.osr }

// Crossings counts events and bytes over each inter-sublayer boundary.
// The fields are live counters; CrossingStats returns a copy, which
// freezes them into a snapshot.
type Crossings struct {
	AppToOSR   metrics.Counter // Write calls
	AppBytes   metrics.Counter
	OSRToRD    metrics.Counter // segments handed down as "ready"
	OSRBytes   metrics.Counter
	RDToOSRAck metrics.Counter // onAcked notifications
	RDToOSRDat metrics.Counter // deliver notifications
	RDToOSRLos metrics.Counter // loss summaries
	CMToRD     metrics.Counter // established / fin notes
	ToDM       metrics.Counter // composed segments handed to DM
	FromDM     metrics.Counter // segments demultiplexed up
}

// each lists the boundary counters, named after the Fig. 5 edges they
// sit on.
func (x *Crossings) each(f func(string, metrics.Instrument)) {
	f("app_to_osr", &x.AppToOSR)
	f("app_bytes", &x.AppBytes)
	f("osr_to_rd", &x.OSRToRD)
	f("osr_bytes", &x.OSRBytes)
	f("rd_to_osr_ack", &x.RDToOSRAck)
	f("rd_to_osr_dat", &x.RDToOSRDat)
	f("rd_to_osr_los", &x.RDToOSRLos)
	f("cm_to_rd", &x.CMToRD)
	f("to_dm", &x.ToDM)
	f("from_dm", &x.FromDM)
}

// each lists every instrument of the connection in connLeaves order,
// followed by the manager's own when it exports any: the lister of the
// stack's "conn" family.
func (c *Conn) each(f func(string, metrics.Instrument)) {
	c.crossings.each(f)
	c.rd.m.each(f)
	c.osr.m.each(f)
	if cm, ok := c.cm.(instrumentedCM); ok {
		cm.each(f)
	}
}

// CrossingStats returns a snapshot of the boundary counters.
func (c *Conn) CrossingStats() Crossings { return c.crossings }

// Write queues application bytes for transmission, returning how many
// were accepted (the rest did not fit the send buffer; retry after
// acks drain it).
func (c *Conn) Write(p []byte) int {
	if c.cm.isDead() {
		return 0
	}
	c.crossings.AppToOSR.Inc()
	n := c.osr.write(p)
	c.crossings.AppBytes.Add(uint64(n))
	return n
}

// Read copies up to len(p) in-order received bytes into p. It returns
// 0 when nothing is pending; use OnReadable to learn when to retry.
// After the peer's stream ends, Read reports open=false once drained.
// It ends the loan of the slice an earlier ReadAll returned.
func (c *Conn) Read(p []byte) (n int, open bool) {
	n = c.osr.read.Read(p)
	return n, !c.EOF()
}

// ReadAll drains everything pending without copying it. The slice is
// borrowed: it is valid until the next Read or ReadAll on this
// connection, after which its storage is filled again, so a caller that
// keeps the bytes copies them first (seg.ReadBuffer).
func (c *Conn) ReadAll() []byte { return c.osr.read.ReadAll() }

// EOF reports whether the peer finished its stream and all bytes were
// read.
func (c *Conn) EOF() bool { return c.osr.eofDelivered && c.osr.read.Len() == 0 }

// Close ends the outgoing stream (sends FIN after queued data). The
// connection fully closes once both directions finish.
func (c *Conn) Close() {
	if c.cm.isDead() {
		return
	}
	c.cm.closeWrite()
}

// Abort kills the connection immediately with a RST.
func (c *Conn) Abort() {
	if c.cm.isDead() {
		return
	}
	c.dm.reset(c.rd.NextSeq())
	c.destroy(transport.ErrReset)
}

// --- wiring used by the sublayers ---

func (c *Conn) now() netsim.Time { return c.stack.sim.Now() }

// onEstablished fires the application callback.
func (c *Conn) onEstablished() {
	notify(c.OnConnected)
	// Data may already be queued (write before connect completes),
	// unless the callback aborted the connection.
	if !c.cm.isDead() {
		c.osr.pump()
	}
}

// notify runs an optional application callback.
func notify(f func()) {
	if f != nil {
		f()
	}
}

// onSegment is the per-connection receive path: CM sees its view
// first (handshake, FIN, RST), then RD processes sequence/ack bits,
// then OSR the window/ECN bits.
func (c *Conn) onSegment(h *tcpwire.SubHeader, payload []byte, ecnMarked bool) {
	if c.cm.isDead() {
		return
	}
	v := cmView{
		syn: h.CM.SYN, fin: h.CM.FIN, rst: h.CM.RST,
		isn:        seg.Seq(h.CM.ISN),
		seqNum:     seg.Seq(h.RD.Seq),
		payloadLen: len(payload),
		ackValid:   h.RD.AckValid,
		ack:        seg.Seq(h.RD.Ack),
	}
	c.crossings.FromDM.Inc()
	if !c.cm.onSegment(v) || c.cm.isDead() {
		return
	}
	if ecnMarked {
		c.osr.noteECNMark()
	}
	c.rd.OnSegment(&h.RD, payload)
	if c.cm.isDead() {
		return
	}
	c.osr.onPeerHeader(h.OSR)
	c.checkInvariants()
}

// destroy tears the connection down and informs the application.
func (c *Conn) destroy(err error) {
	if !c.cm.stop(err) {
		return
	}
	c.dm.close(err, c.rd.una())
	c.rd.stop()
	c.osr.stop()
	if c.OnClosed != nil {
		c.OnClosed(err)
	}
}
