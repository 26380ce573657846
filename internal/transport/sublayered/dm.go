package sublayered

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
	"repro/internal/verify"
)

// Config assembles a sublayered transport stack. Every sublayer
// implementation is independently selectable — the fungibility the
// paper's T3 promises and experiment E8 measures. The segment size,
// buffer sizes, retransmission bound and TIME_WAIT are the transport
// package's constants, shared with the monolithic baseline.
type Config struct {
	// CC selects the congestion controller by ccontrol name
	// ("newreno", "cubic", "bbrlite", ...; default ccontrol.DefaultName).
	// Unknown names panic at the first connection.
	CC string
	// CM selects the connection manager by name: CMHandshake (the
	// default), CMClockHandshake or CMWatson. Unknown names panic in
	// NewStack.
	CM string
	// UseShim selects RFC 793 wire format through the §3.1 shim
	// (interoperates with the monolithic TCP); otherwise the native
	// Fig. 6 header is used.
	UseShim bool
	// NativeSACK enables SACK blocks (native mode; the shim negotiates
	// SACK with standard options).
	NativeSACK bool
	// DelayedAcks acknowledges every second in-order segment (or after
	// 50ms) instead of every segment — the classic ack-thinning tune
	// (challenge 3). Out-of-order arrivals still ack immediately.
	DelayedAcks bool
	// Contracts, if set, evaluates every sublayer's invariants after
	// each processed segment — the paper's localize-bugs-to-sublayers
	// debugging story. Nil costs nothing.
	Contracts *verify.Checker
	// Metrics, when non-nil, adopts the stack's instruments under this
	// scope: "dm/..." for the demultiplexer and "conn<n>/<sublayer>/..."
	// per connection, numbered in creation order. Each connection joins
	// the stack's "conn" family (metrics.Family), so attaching a
	// registry costs a connection no allocation beyond the family's
	// amortised slice growth, however many instruments it has and
	// however many connections came before. A
	// nil scope costs nothing (instruments stay detached).
	Metrics *metrics.Scope
}

func (c Config) withDefaults() Config {
	if c.CM == "" {
		c.CM = CMHandshake
	}
	return c
}

// dmMetrics instruments demultiplexing outcomes.
type dmMetrics struct {
	delivered  metrics.Counter
	newPassive metrics.Counter
	noListener metrics.Counter
	malformed  metrics.Counter
	rstsSent   metrics.Counter
}

func (m *dmMetrics) each(f func(string, metrics.Instrument)) {
	f("delivered", &m.delivered)
	f("new_passive", &m.newPassive)
	f("no_listener", &m.noListener)
	f("malformed", &m.malformed)
	f("rsts_sent", &m.rstsSent)
}

// DM is the demultiplexing sublayer — "essentially UDP; it allows
// demultiplexing via standard destination and source port numbers. No
// sublayer can do its work without DM; so we place DM at the bottom.
// DM encapsulates details of binding IP addresses to ports and reusing
// ports." (§3)
type DM struct {
	stack     *Stack
	listeners map[uint16]*Listener
	conns     map[tcpwire.FlowKey]*Conn
	ports     transport.Ports
	// rxHdr is the scratch header every native-mode segment is parsed
	// into: the receive path is single-threaded (one event at a time)
	// and nothing below retains the header across events, so one
	// instance per stack suffices and parsing allocates nothing.
	rxHdr tcpwire.SubHeader
	m     dmMetrics
}

// Listener accepts passive opens on a port.
type Listener struct {
	// OnAccept is invoked with each newly created (still handshaking)
	// connection; set callbacks on it there.
	OnAccept func(*Conn)
}

// Stack is one host's sublayered transport: a DM instance bound to a
// router, creating four-sublayer Conns.
type Stack struct {
	sim     netsim.Backend
	router  *network.Router
	cfg     Config
	dm      *DM
	shim    *tcpwire.Shim
	connSeq int
	// conns is the "conn" family every connection joins (nil without
	// a registry).
	conns *metrics.Family[*Conn]
	// traceName labels this stack's causal-trace events ("n1/sub").
	traceName string
	// What the connection managers of cfg.CM share per host: the
	// handshake's ISN generator (it holds nothing but the host's
	// secret), or Watson's incarnation registry.
	isn          ISNGenerator
	incarnations incarnations
	// spare lists the bundles finished connections gave back, for the
	// next (connParts); timeWait runs their TIME_WAIT timers.
	spare    *connParts
	timeWait timeWaitQueue
}

// NewStack attaches a sublayered transport to a router. In shim mode
// it claims the router's ProtoTCP handler; in native mode ProtoSubTCP.
// The stack's instruments are adopted under cfg.Metrics: "dm/...",
// "shim/..." and "conn<n>/..." for each connection as it is created.
func NewStack(sim netsim.Backend, router *network.Router, cfg Config) *Stack {
	s := &Stack{sim: sim, router: router, cfg: cfg.withDefaults(),
		traceName: router.Addr().String() + "/sub"}
	s.dm = &DM{
		stack:     s,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[tcpwire.FlowKey]*Conn),
	}
	s.timeWait.expire = s.timeWait.onExpire
	switch s.cfg.CM {
	case CMHandshake:
		s.isn = &CryptoISN{}
	case CMClockHandshake:
		s.isn = ClockISN{}
	case CMWatson:
		s.incarnations = make(incarnations)
	default:
		panic(fmt.Sprintf("sublayered: unknown connection manager %q", s.cfg.CM))
	}
	if s.cfg.UseShim {
		s.shim = tcpwire.NewShim(transport.MSS)
		router.Handle(network.ProtoTCP, s.dm.receive)
	} else {
		router.Handle(network.ProtoSubTCP, s.dm.receive)
	}
	s.dm.m.each(s.cfg.Metrics.Sub("dm").Register)
	s.conns = metrics.NewFamily(s.cfg.Metrics, "conn", (*Conn).each)
	if s.shim != nil {
		s.shim.BindMetrics(s.cfg.Metrics.Sub("shim"))
	}
	return s
}

// Close aborts every open connection (RST to the peer,
// transport.ErrReset locally) and releases every listener. The stack
// keeps its router handler but accepts no new work: dials fail to find
// state and inbound segments to freed ports draw RSTs.
func (s *Stack) Close() error {
	conns := make([]*Conn, 0, len(s.dm.conns))
	for _, c := range s.dm.conns {
		conns = append(conns, c)
	}
	for _, c := range conns {
		c.Abort()
	}
	for port := range s.dm.listeners {
		s.dm.ports.Unbind(port)
	}
	s.dm.listeners = make(map[uint16]*Listener)
	return nil
}

// Addr returns the host's network address.
func (s *Stack) Addr() network.Addr { return s.router.Addr() }

// Config returns the stack's (defaulted) configuration.
func (s *Stack) Config() Config { return s.cfg }

// Listen binds a port for passive opens.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, busy := s.dm.listeners[port]; busy {
		return nil, fmt.Errorf("sublayered: port %d already bound", port)
	}
	l := &Listener{}
	s.dm.listeners[port] = l
	s.dm.ports.Bind(port)
	return l, nil
}

// Dial opens a connection to dstAddr:dstPort, returning immediately;
// use Conn.OnConnected for establishment.
func (s *Stack) Dial(dstAddr network.Addr, dstPort uint16) (*Conn, error) {
	local := s.dm.ports.Ephemeral()
	if local == 0 {
		return nil, fmt.Errorf("sublayered: no free ephemeral ports")
	}
	key := tcpwire.FlowKey{
		SrcAddr: uint16(s.router.Addr()), DstAddr: uint16(dstAddr),
		SrcPort: local, DstPort: dstPort,
	}
	c := s.newConn(key)
	s.dm.insert(key, c)
	c.cm.open(true, cmView{})
	return c, nil
}

// connLeaves names the instruments every connection has, sublayer by
// sublayer; a connection manager that exports its own (instrumentedCM)
// extends it.
var connLeaves = metrics.ConcatLeaves(
	metrics.LeavesOf("crossings", new(Crossings).each),
	metrics.LeavesOf("rd", new(rdMetrics).each),
	metrics.LeavesOf("osr", new(osrMetrics).each))

// instrumentedCM is implemented by connection managers that export
// instruments with the rest of their connection.
type instrumentedCM interface {
	// leaves is connLeaves followed by the manager's own "cm/..."
	// names — a static table, one per manager type.
	leaves() *metrics.Leaves
	// each lists the manager's instruments in that table's order.
	each(f func(string, metrics.Instrument))
}

// newConn builds the four-sublayer composition: the Conn with DM's
// half, RD and OSR inside it, and behind it the two replaceable parts.
func (s *Stack) newConn(key tcpwire.FlowKey) *Conn {
	c := &Conn{stack: s, dm: dmConn{key: key}}
	c.dm.conn = c
	c.cm = s.newCM(c)
	p := s.takeParts(c)
	c.rd.init(c, s.cfg.NativeSACK || s.cfg.UseShim, s.cfg.DelayedAcks, p.out)
	c.osr.init(c, s.newCC(p.cc), p.send)
	p.cc, p.out, p.send = nil, nil, nil
	s.adoptMetrics(c)
	return c
}

// newCM builds c's connection manager, the one cfg.CM names.
func (s *Stack) newCM(c *Conn) ConnManager {
	if s.cfg.CM == CMWatson {
		return &TimerCM{cmCore: cmCore{conn: c}}
	}
	return &HandshakeCM{cmCore: cmCore{conn: c}}
}

// admits reports whether the scheme cfg.CM names opens a passive
// connection on v, the first segment of flow key (local end first) to
// a listening port. It runs before anything is built, so a refused
// segment costs no connection, no controller and no metric family
// member. The handshake opens only on a SYN; DM answers anything else
// with the no-listener RST, as for a closed port. Watson's scheme
// opens on any non-SYN of a fresh incarnation, and records the
// incarnation; it drops a delayed duplicate of an earlier one, and a
// SYN, which only a handshake peer sends, without a word (quiet).
func (s *Stack) admits(key tcpwire.FlowKey, v cmView) (open, quiet bool) {
	if s.cfg.CM != CMWatson {
		return v.syn, false
	}
	if v.syn || !s.incarnations.accept(key, v.isn) {
		return false, true
	}
	return true, false
}

// adoptMetrics makes the connection member connSeq of the stack's
// "conn" family, named "conn<seq>/<sublayer>/<leaf>" when a snapshot
// asks: the registry keeps the connection and its leaf table, not its
// instruments.
func (s *Stack) adoptMetrics(c *Conn) {
	// The sequence number advances whether or not a registry is
	// attached, so metric names are stable across configurations.
	seq := s.connSeq
	s.connSeq++
	leaves := connLeaves
	if cm, ok := c.cm.(instrumentedCM); ok {
		leaves = cm.leaves()
	}
	s.conns.Join(seq, leaves, c)
}

// receive is the bottom of the stack: decode the wire format (native
// or through the shim), demultiplex on ports, and hand the segment to
// the connection — or create one for a SYN to a listening port.
func (d *DM) receive(dg *network.Datagram) {
	var h *tcpwire.SubHeader
	var payload []byte
	var err error
	inKey := tcpwire.FlowKey{SrcAddr: uint16(dg.Src), DstAddr: uint16(dg.Dst)}
	if d.stack.shim != nil {
		// Ports live inside the TCP header; the shim checksum covers
		// addresses via the pseudo-header.
		h, payload, err = d.stack.shim.Inbound(dg.Payload, inKey)
	} else {
		h = &d.rxHdr
		payload, err = tcpwire.UnmarshalSubInto(h, dg.Payload)
	}
	if err != nil {
		d.m.malformed.Inc()
		return
	}
	key := tcpwire.FlowKey{
		SrcAddr: uint16(dg.Dst), DstAddr: uint16(dg.Src),
		SrcPort: h.DM.DstPort, DstPort: h.DM.SrcPort,
	}
	if c, ok := d.conns[key]; ok {
		d.m.delivered.Inc()
		c.onSegment(h, payload, dg.ECN)
		return
	}
	// No connection: a first segment to a listener creates one
	// (passive open) if the connection manager's scheme admits it.
	// SYN-ACKs are never passive opens.
	if !h.CM.RST && !(h.CM.SYN && h.RD.AckValid) {
		if l, ok := d.listeners[h.DM.DstPort]; ok {
			v := cmView{
				syn: h.CM.SYN, fin: h.CM.FIN, isn: seg.Seq(h.CM.ISN),
				seqNum: seg.Seq(h.RD.Seq), ackValid: h.RD.AckValid, ack: seg.Seq(h.RD.Ack),
			}
			switch open, quiet := d.stack.admits(key, v); {
			case quiet:
				return
			case open:
				c := d.stack.newConn(key)
				c.cm.open(false, v)
				d.m.newPassive.Inc()
				d.insert(key, c)
				if l.OnAccept != nil {
					l.OnAccept(c)
				}
				if !h.CM.SYN {
					// Timer-based opens carry data in the first segment.
					c.onSegment(h, payload, dg.ECN)
				}
				return
			}
		}
	}
	d.m.noListener.Inc()
	if !h.CM.RST {
		d.sendRST(dg.Src, h)
	}
}

// sendRST answers a stray segment with a reset.
func (d *DM) sendRST(to network.Addr, in *tcpwire.SubHeader) {
	d.m.rstsSent.Inc()
	out := &tcpwire.SubHeader{
		DM: tcpwire.DMSection{SrcPort: in.DM.DstPort, DstPort: in.DM.SrcPort},
		CM: tcpwire.CMSection{RST: true},
		RD: tcpwire.RDSection{Seq: in.RD.Ack, Ack: in.RD.Seq, AckValid: true},
	}
	key := tcpwire.FlowKey{
		SrcAddr: uint16(d.stack.router.Addr()), DstAddr: uint16(to),
		SrcPort: out.DM.SrcPort, DstPort: out.DM.DstPort,
	}
	d.transmit(to, key, out, nil)
}

// transmit marshals a segment and sends it to the network, returning
// the trace ID of its wire buffer (zero when untraced).
func (d *DM) transmit(to network.Addr, key tcpwire.FlowKey, h *tcpwire.SubHeader, payload []byte) uint64 {
	// Marshal straight into a pooled buffer with network-header
	// headroom: the segment is written exactly once and the same bytes
	// travel every hop (SendOwned transfers the buffer down the stack).
	var buf []byte
	proto := network.ProtoSubTCP
	if d.stack.shim != nil {
		wire := d.stack.shim.Outbound(h, payload, key)
		proto = network.ProtoTCP
		buf = bufpool.Get(network.Headroom + len(wire))
		copy(buf[network.Headroom:], wire)
	} else {
		buf = bufpool.Get(network.Headroom + h.WireLen(len(payload)))
		h.MarshalTo(buf[network.Headroom:], payload)
	}
	var id uint64
	if t := d.stack.sim.Tracer(); t != nil {
		// Stamp at allocation: this wire-buffer incarnation gets a fresh
		// generation-safe ID, and the xmit event ties it to (flow, seq)
		// so retransmissions of the same segment correlate.
		id = t.Stamp(buf)
		t.Emit(netsim.TraceEvent{
			At: d.stack.sim.Now(), ID: id, Flow: packFlow(key), Seq: h.RD.Seq,
			Len: len(payload), Node: d.stack.traceName,
			Layer: netsim.LayerTransport, Kind: "xmit",
		}, nil)
	}
	// Errors (no route yet) are dropped; retransmission recovers once
	// routing converges.
	_ = d.stack.router.SendOwned(to, proto, buf, false)
	return id
}

// packFlow folds the connection 4-tuple into the trace correlator.
func packFlow(key tcpwire.FlowKey) uint64 {
	return netsim.PackFlow(key.SrcAddr, key.DstAddr, key.SrcPort, key.DstPort)
}

// insert enters a connection into the demux table.
func (d *DM) insert(key tcpwire.FlowKey, c *Conn) {
	d.conns[key] = c
	d.ports.Bind(key.SrcPort)
}

// remove deletes a dead connection from the demux table. A passive
// open its manager rejected dies before it was ever inserted.
func (d *DM) remove(key tcpwire.FlowKey) {
	if _, ok := d.conns[key]; ok {
		delete(d.conns, key)
		d.ports.Unbind(key.SrcPort)
	}
}

// dmConn is DM's per-connection half: the flow a connection's segments
// carry, and the header they are composed in. Like RD and OSR it is a
// value inside the Conn.
type dmConn struct {
	conn *Conn
	key  tcpwire.FlowKey

	// lastXmitID is the trace ID of the newest wire buffer this
	// connection transmitted — the "offending packet" a flight-recorder
	// dump chases when the connection aborts. Zero when untraced.
	lastXmitID uint64

	// txHdr is the scratch header every outgoing segment is composed
	// in: transmit marshals it into the wire buffer before returning,
	// so nothing retains it and one instance per connection suffices.
	txHdr tcpwire.SubHeader
}

// flow returns the connection's 4-tuple, local end first.
func (m *dmConn) flow() tcpwire.FlowKey { return m.key }

// xmitData sends a data-bearing segment, or a pure acknowledgement, on
// RD's behalf.
func (m *dmConn) xmitData(seqNum seg.Seq, payload []byte) {
	m.txHdr = tcpwire.SubHeader{
		CM:  m.conn.cm.section(),
		RD:  m.conn.rd.Section(seqNum),
		OSR: m.conn.osr.Section(),
	}
	m.transmit(payload)
}

// xmitCM sends a connection-management segment (SYN, SYN-ACK, FIN).
// CM supplies its own section and the segment's sequence number; the
// acknowledgement comes from RD once established, or from CM's
// explicit override during the handshake (§3.1: CM's bootstrap
// reliability replicates a little of RD, by design).
func (m *dmConn) xmitCM(cm tcpwire.CMSection, seqNum seg.Seq, overrideAck seg.Seq, hasOverride bool) {
	m.txHdr = tcpwire.SubHeader{
		CM:  cm,
		RD:  m.conn.rd.Section(seqNum),
		OSR: m.conn.osr.Section(),
	}
	if hasOverride {
		m.txHdr.RD.AckValid = true
		m.txHdr.RD.Ack = uint32(overrideAck)
		m.txHdr.RD.SACK = nil
	}
	m.transmit(nil)
}

// reset sends the RST of an application abort, at seqNum.
func (m *dmConn) reset(seqNum seg.Seq) {
	m.txHdr = tcpwire.SubHeader{
		CM: tcpwire.CMSection{RST: true},
		RD: tcpwire.RDSection{Seq: uint32(seqNum)},
	}
	m.transmit(nil)
}

// transmit stamps the ports on the composed header and sends it.
func (m *dmConn) transmit(payload []byte) {
	m.conn.crossings.ToDM.Inc()
	m.txHdr.DM = tcpwire.DMSection{SrcPort: m.key.SrcPort, DstPort: m.key.DstPort}
	if id := m.conn.stack.dm.transmit(network.Addr(m.key.DstAddr), m.key, &m.txHdr, payload); id != 0 {
		m.lastXmitID = id
	}
}

// trace emits one transport-layer span event for this connection when
// tracing is on; a no-op (single nil check) otherwise.
func (m *dmConn) trace(kind, verdict string, id uint64, seqNum uint32, n int) {
	s := m.conn.stack
	t := s.sim.Tracer()
	if t == nil {
		return
	}
	t.Emit(netsim.TraceEvent{
		At: s.sim.Now(), ID: id, Flow: packFlow(m.key), Seq: seqNum, Len: n,
		Node: s.traceName, Layer: netsim.LayerTransport,
		Kind: kind, Verdict: verdict,
	}, nil)
}

// close leaves DM's table. When err ends the connection it is traced
// as an abort at sndUna that names the newest transmitted wire buffer:
// its causal chain is what the flight recorder dumps.
func (m *dmConn) close(err error, sndUna seg.Seq) {
	if err != nil {
		verdict := netsim.VerdictReset
		if err == transport.ErrTimeout {
			verdict = netsim.VerdictTimeout
		}
		m.trace("abort", verdict, m.lastXmitID, uint32(sndUna), 0)
	}
	m.conn.stack.dm.remove(m.key)
}
