// Package monolithic is the baseline TCP the paper's §4.2 studies: a
// single protocol control block whose fields are shared and mutated by
// every handler, structured after lwIP (which in turn follows the BSD
// code of TCP/IP Illustrated vol. 2): tcpInput demultiplexes and
// checks, tcpProcess runs the connection FSM, tcpReceive handles acks
// and data, tcpOutput transmits, and the retransmission timer cuts
// across all of it.
//
// The implementation is deliberately NOT sublayered — sequence numbers,
// windows and congestion state live side by side in the PCB and every
// function reads and writes several of them. That entanglement is the
// point: experiment E6 reads both this package's source and
// internal/transport/sublayered's with the same analysis and measures
// the difference the paper conjectures (shared variables, O(N²) handler
// interaction pairs). On the wire it speaks standard RFC 793 segments,
// so it interoperates with the sublayered TCP behind its shim (E4).
package monolithic

import (
	"fmt"
	"time"

	"repro/internal/ccontrol"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
	"repro/internal/verify"
)

// Config tunes the stack. The segment size, buffer sizes,
// retransmission bound and TIME_WAIT are the transport package's
// constants, shared with the sublayered stack.
type Config struct {
	// CC selects the congestion controller by ccontrol name
	// ("newreno", "cubic", "bbrlite", ...; default ccontrol.DefaultName).
	// Unknown names panic at NewStack. Note the asymmetry E6/E12
	// instrument: the sublayered stack confines the same swap to OSR's
	// wiring, while here the controller's glue threads through
	// tcp_receive, tcp_output and the retransmission timer.
	CC string
	// Contracts, if set, evaluates the PCB's (entangled, whole-block)
	// invariants after each processed segment.
	Contracts *verify.Checker
	// Metrics, when non-nil, adopts the stack's instruments under this
	// scope as "tcp/...". A nil scope costs nothing.
	Metrics *metrics.Scope
}

type connID struct {
	remoteAddr network.Addr
	remotePort uint16
	localPort  uint16
}

// tcpMetrics instruments stack-wide events — the monolithic
// equivalents of the sublayered stack's RD/CM counters, plus the same
// milliseconds RTT histogram so E7-style comparisons line up.
type tcpMetrics struct {
	segmentsIn      metrics.Counter
	segmentsOut     metrics.Counter
	checksumErrors  metrics.Counter
	retransmits     metrics.Counter
	fastRetransmits metrics.Counter
	timeouts        metrics.Counter
	rstsSent        metrics.Counter
	aborts          metrics.Counter
	rttMs           *metrics.Histogram
}

func (m *tcpMetrics) each(f func(string, metrics.Instrument)) {
	f("segments_in", &m.segmentsIn)
	f("segments_out", &m.segmentsOut)
	f("checksum_errors", &m.checksumErrors)
	f("retransmits", &m.retransmits)
	f("fast_retransmits", &m.fastRetransmits)
	f("timeouts", &m.timeouts)
	f("rsts_sent", &m.rstsSent)
	f("aborts", &m.aborts)
	f("rtt_ms", m.rttMs)
}

// Stack is one host's monolithic TCP.
type Stack struct {
	sim       netsim.Backend
	router    *network.Router
	cfg       Config
	pcbs      map[connID]*PCB
	listeners map[uint16]*Listener
	ports     transport.Ports
	m         tcpMetrics
	// traceName labels this stack's causal-trace events ("n1/mono").
	traceName string

	// rxHdr and txHdr are scratch headers. The receive path is
	// single-threaded and parses every arriving segment into rxHdr;
	// every outgoing segment is composed in txHdr and marshaled into
	// the wire buffer before the send returns. Neither survives past
	// the call that fills it.
	rxHdr tcpwire.TCPHeader
	txHdr tcpwire.TCPHeader
}

// Listener accepts passive opens.
type Listener struct {
	OnAccept func(*PCB)
}

// NewStack attaches a monolithic TCP to a router (claims ProtoTCP) and
// adopts its instruments under cfg.Metrics as "tcp/...".
func NewStack(sim netsim.Backend, router *network.Router, cfg Config) *Stack {
	s := &Stack{
		sim:       sim,
		router:    router,
		cfg:       cfg,
		pcbs:      make(map[connID]*PCB),
		listeners: make(map[uint16]*Listener),
		traceName: router.Addr().String() + "/mono",
	}
	s.m.rttMs = metrics.NewHistogram(rttBoundsMs...)
	router.Handle(network.ProtoTCP, s.tcpInput)
	s.m.each(cfg.Metrics.Sub("tcp").Register)
	return s
}

// Close aborts every open PCB (RST to the peer, transport.ErrReset
// locally) and releases every listener.
func (s *Stack) Close() error {
	pcbs := make([]*PCB, 0, len(s.pcbs))
	for _, p := range s.pcbs {
		pcbs = append(pcbs, p)
	}
	for _, p := range pcbs {
		p.Abort()
	}
	for port := range s.listeners {
		s.ports.Unbind(port)
	}
	s.listeners = make(map[uint16]*Listener)
	return nil
}

// Stats returns a snapshot of stack counters.
func (s *Stack) Stats() metrics.View { return metrics.ViewOf(s.m.each) }

// rttBoundsMs matches the sublayered RD histogram bucketing so the two
// stacks' distributions compare directly.
var rttBoundsMs = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// Addr returns the host's network address.
func (s *Stack) Addr() network.Addr { return s.router.Addr() }

// PCB is the protocol control block: every field of the connection in
// one shared structure, exactly the layout §2.3 describes as
// "encapsulated into a memory-efficient layout" whose unrestricted
// sharing makes reasoning hard.
type PCB struct {
	stack *Stack
	id    connID
	state transport.State // StateClosed once the PCB is dead

	// Sequence space.
	iss, irs       seg.Seq
	sndUna, sndNxt seg.Seq
	rcvNxt         seg.Seq

	// Windows — reliability, flow control and congestion control all
	// read and write these (the paper's "entangled state" example). The
	// congestion policy itself now lives behind ccontrol.Controller, but
	// its glue (ack accounting, dupack counting, window gating) still
	// threads through every handler below.
	sndWnd  int // peer's advertised window
	cc      ccontrol.Controller
	dupAcks int

	// Buffers.
	sndBuf   *seg.SendBuffer
	nextSend uint64 // stream offset of the next byte to (re)transmit
	reasm    *seg.Reassembly
	read     seg.ReadBuffer

	// Retransmission.
	rtt       *seg.RTTEstimator
	rexmit    netsim.Timer
	rexmitFn  func() // cached callbacks; re-arming allocates nothing
	persistFn func()
	nrexmit   int
	timing    bool
	timedEnd  seg.Seq
	timedAt   netsim.Time

	// Teardown.
	closed    bool // application closed the write side
	finSent   bool
	finAcked  bool
	rcvdFin   bool
	finSeq    seg.Seq
	finOffset uint64 // peer FIN's position as a stream offset
	eof       bool
	err       error

	// lastXmitID is the trace ID of the newest wire buffer this PCB
	// transmitted — the packet a flight-recorder dump chases when the
	// connection aborts. Zero when untraced.
	lastXmitID uint64

	// Application callbacks.
	OnConnected func()
	OnReadable  func()
	OnWritable  func()
	OnClosed    func(error)
}

// Callbacks sets all four application callbacks at once; with it PCB
// satisfies transport.Conn.
func (p *PCB) Callbacks(onConnected, onReadable, onWritable func(), onClosed func(error)) {
	p.OnConnected, p.OnReadable, p.OnWritable, p.OnClosed = onConnected, onReadable, onWritable, onClosed
}

// State reports the FSM state.
func (p *PCB) State() transport.State { return p.state }

// CC exposes the congestion controller (read-only use: stats, E12).
func (p *PCB) CC() ccontrol.Controller { return p.cc }

// Err returns the terminal error, if the PCB died.
func (p *PCB) Err() error { return p.err }

// LocalPort returns the local port.
func (p *PCB) LocalPort() uint16 { return p.id.localPort }

// RemotePort returns the remote port.
func (p *PCB) RemotePort() uint16 { return p.id.remotePort }

// flow packs this PCB's 4-tuple into the TraceEvent.Flow correlator.
func (p *PCB) flow() uint64 {
	return netsim.PackFlow(uint16(p.stack.router.Addr()), uint16(p.id.remoteAddr),
		p.id.localPort, p.id.remotePort)
}

// trace emits one transport-layer span event for this PCB when tracing
// is on; a no-op (single nil check) otherwise.
func (p *PCB) trace(kind, verdict string, id uint64, seqNum uint32, n int) {
	t := p.stack.sim.Tracer()
	if t == nil {
		return
	}
	t.Emit(netsim.TraceEvent{
		At: p.stack.sim.Now(), ID: id, Flow: p.flow(), Seq: seqNum, Len: n,
		Node: p.stack.traceName, Layer: netsim.LayerTransport,
		Kind: kind, Verdict: verdict,
	}, nil)
}

// Listen binds a port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("monolithic: port %d already bound", port)
	}
	l := &Listener{}
	s.listeners[port] = l
	s.ports.Bind(port)
	return l, nil
}

// Dial opens a connection.
func (s *Stack) Dial(dst network.Addr, dstPort uint16) (*PCB, error) {
	local := s.ports.Ephemeral()
	if local == 0 {
		return nil, fmt.Errorf("monolithic: no free ports")
	}
	p := s.newPCB(connID{remoteAddr: dst, remotePort: dstPort, localPort: local})
	s.insert(p)
	p.state = transport.StateSynSent
	p.iss = seg.Seq(uint32(int64(s.sim.Now())/4000) ^ uint32(local)<<16)
	p.sndUna = p.iss
	p.sndNxt = p.iss.Add(1)
	p.sendFlags(tcpwire.FlagSYN, p.iss, 0)
	p.armRexmit()
	return p, nil
}

// insert enters a PCB into the demux table.
func (s *Stack) insert(p *PCB) {
	s.pcbs[p.id] = p
	s.ports.Bind(p.id.localPort)
}

func (s *Stack) newPCB(id connID) *PCB {
	p := &PCB{
		stack:  s,
		id:     id,
		cc:     ccontrol.MustNew(s.cfg.CC, transport.MSS),
		sndWnd: transport.MSS,
		sndBuf: seg.NewSendBuffer(transport.BufSize),
		reasm:  seg.NewReassembly(transport.BufSize),
		rtt:    seg.NewRTTEstimator(time.Second, 200*time.Millisecond, 60*time.Second),
	}
	p.rexmitFn = p.onRexmitTimer
	p.persistFn = p.onPersistTimer
	return p
}
