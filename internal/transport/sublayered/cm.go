package sublayered

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// cmView is the slice of an arriving segment that connection
// management is entitled to see: its own section's flags and ISN, plus
// the segment coordinates needed to place SYN/FIN in sequence space
// (the narrow T2 interface; CM never sees payload bytes).
type cmView struct {
	syn, fin, rst bool
	isn           seg.Seq
	seqNum        seg.Seq
	payloadLen    int
	ackValid      bool
	ack           seg.Seq
}

// ConnManager is the connection-management sublayer contract. Its
// service (T1) is establishing "a pair of Initial Sequence Numbers"
// and tearing the connection down; SYN and FIN get CM's own bootstrap
// reliability (retransmission and timeout, no windows — §3.1).
// Implementations are swappable (E8, Config.CM): the three-way
// handshake with either ISN generator, or the Watson-style timer
// scheme. Both embed cmCore, which implements everything after the
// open.
type ConnManager interface {
	// open starts the connection; active opens send, passive opens
	// await the peer (firstSegment carries the packet that created a
	// passive connection, and is empty for an active one).
	open(active bool, firstSegment cmView)
	// onSegment processes CM's view of an arriving segment and reports
	// whether the segment should also be processed by RD.
	onSegment(v cmView) (deliverToRD bool)
	// closeWrite is the application's close; CM emits the FIN once OSR
	// reports the stream drained.
	closeWrite()
	// streamFinished is OSR's note that all bytes up to end have been
	// handed to RD; CM may now place its FIN at end.
	streamFinished(end uint64)
	// peerStreamComplete is OSR's note that the peer's stream has been
	// fully reassembled up to its FIN; CM runs the close transition
	// (the FIN is processed in sequence, as in RFC 793).
	peerStreamComplete()
	// localFinSeq returns the sequence number of our FIN, or 0 if no
	// FIN has been sent (RD uses it to exclude the FIN from byte
	// counts).
	localFinSeq() seg.Seq
	// state reports the FSM state.
	state() transport.State
	// section fills CM's bits of an ordinary outgoing segment.
	section() tcpwire.CMSection
	// stop ends the connection: CLOSED, with err (nil for an orderly
	// close), and CM's retransmission timer cancelled. It is called
	// only by Conn.destroy, which every end goes through, and reports
	// false, doing nothing, if the connection had already ended.
	stop(err error) bool
	// isDead reports whether the state is CLOSED, which only stop
	// sets: the connection has ended and nothing may follow. cause is
	// the error stop recorded.
	isDead() bool
	cause() error
	// onTimer is the callback of every CM timer (cmTimer).
	onTimer()
}

// Connection-manager names for Config.CM.
const (
	// CMHandshake is the three-way handshake with RFC 1948
	// cryptographic ISNs (CryptoISN), the default.
	CMHandshake = "handshake"
	// CMClockHandshake is the three-way handshake with RFC 793 clock
	// ISNs (ClockISN).
	CMClockHandshake = "clock-handshake"
	// CMWatson is Watson's timer-based scheme (TimerCM).
	CMWatson = "watson"
)

// CM's bootstrap reliability, shared by both connection managers: a
// SYN or FIN is retransmitted after cmRexmitInterval, doubling per
// attempt up to 1<<cmMaxBackoffShift times it, and the connection dies
// with transport.ErrTimeout when an attempt beyond cmMaxAttempts would
// be sent.
const (
	cmRexmitInterval  = 500 * time.Millisecond
	cmMaxBackoffShift = 6
	cmMaxAttempts     = 8
)

// cmMetrics instruments connection-management events.
type cmMetrics struct {
	synSent, synRetransmits metrics.Counter
	finSent, finRetransmits metrics.Counter
	resets                  metrics.Counter
}

func (m *cmMetrics) each(f func(string, metrics.Instrument)) {
	f("syn_sent", &m.synSent)
	f("syn_retransmits", &m.synRetransmits)
	f("fin_sent", &m.finSent)
	f("fin_retransmits", &m.finRetransmits)
	f("resets", &m.resets)
}

// cmCore is the half of connection management both schemes share: the
// ISN pair, the bootstrap retransmission timer, and teardown — FIN
// placement and its acknowledgement, the close transitions, TIME_WAIT
// and resets. Watson's scheme replaces only establishment (timercm.go),
// so HandshakeCM and TimerCM embed cmCore and differ only in how they
// open.
type cmCore struct {
	conn    *Conn
	st      transport.State
	isn     seg.Seq
	peerISN seg.Seq

	// Bootstrap reliability for SYN / SYN-ACK / FIN. Every CM timer is
	// armed with the connection's one CM callback (cmTimer), and the
	// state says what a firing means.
	rexmit   netsim.Timer
	attempts int

	finSeq    seg.Seq
	finQueued bool
	finSent   bool
	finAcked  bool

	remoteFinSeen bool

	// err is what the connection ended with, once st is CLOSED.
	err error

	// m counts under both schemes, but only HandshakeCM exports it
	// (instrumentedCM): a Watson connection has no "cm/..." samples.
	m cmMetrics
}

func (m *cmCore) state() transport.State { return m.st }

func (m *cmCore) localFinSeq() seg.Seq {
	if !m.finSent {
		return 0
	}
	return m.finSeq
}

// sendFIN emits our FIN with bootstrap retransmission; RD fills the
// ack fields (xmitCM).
func (m *cmCore) sendFIN() {
	m.m.finSent.Inc()
	m.conn.dm.xmitCM(tcpwire.CMSection{FIN: true, ISN: uint32(m.isn)},
		m.finSeq, 0, false)
	m.armRexmit()
}

// armRexmit (re)arms the bootstrap retransmission timer with
// exponential backoff; exceeding cmMaxAttempts kills the connection.
func (m *cmCore) armRexmit() {
	m.rexmit.Stop()
	m.attempts++
	if m.attempts > cmMaxAttempts {
		m.conn.destroy(transport.ErrTimeout)
		return
	}
	m.rexmit = m.conn.arm(cmBackoff(m.attempts), cmTimer)
}

// cmBackoff is the interval before the attempt after the n-th.
func cmBackoff(n int) time.Duration {
	return cmRexmitInterval << min(n-1, cmMaxBackoffShift)
}

func (m *cmCore) cancelRexmit() {
	m.rexmit.Stop()
	m.attempts = 0
}

// onReset is the head of both managers' onSegment: it reports whether
// v is a reset, and ends the connection if so.
func (m *cmCore) onReset(v cmView) bool {
	if !v.rst {
		return false
	}
	m.m.resets.Inc()
	m.conn.destroy(m.st.ResetErr())
	return true
}

// onFin is the tail of both managers' onSegment once the connection is
// open: the peer's FIN, and the acknowledgement of ours.
func (m *cmCore) onFin(v cmView) {
	if v.fin && !m.remoteFinSeen {
		m.remoteFinSeen = true
		finSeq := v.seqNum.Add(v.payloadLen)
		m.conn.rd.SetRemoteFin(finSeq)
		m.conn.osr.setStreamEnd(m.conn.rd.rcvOffset(finSeq))
		// The state transition happens when the peer's stream is
		// complete (peerStreamComplete), not on FIN arrival: the FIN
		// may precede retransmissions that fill holes.
		m.conn.rd.AckNow()
	} else if v.fin {
		// Retransmitted FIN: our ack was lost.
		m.conn.rd.AckNow()
	}
	if m.finSent && !m.finAcked && v.ackValid && m.finSeq.Less(v.ack) {
		m.finAcked = true
		m.cancelRexmit()
		switch m.st {
		case transport.StateFinWait1:
			m.st = transport.StateFinWait2
		case transport.StateClosing:
			m.enterTimeWait()
		case transport.StateLastAck:
			m.conn.destroy(nil)
		}
	}
}

// onCloseTimer is the teardown half of both managers' timer callback.
// The state names what was armed: the retransmission timer is
// cancelled on every transition out of the state that armed it, and
// nothing leaves TIME_WAIT but this.
func (m *cmCore) onCloseTimer() {
	switch m.st {
	case transport.StateFinWait1, transport.StateClosing, transport.StateLastAck:
		m.m.finRetransmits.Inc()
		m.sendFIN()
	case transport.StateTimeWait:
		m.conn.destroy(nil)
	}
}

// peerStreamComplete implements ConnManager.
func (m *cmCore) peerStreamComplete() {
	switch m.st {
	case transport.StateEstablished:
		m.st = transport.StateCloseWait
	case transport.StateFinWait1:
		m.st = transport.StateClosing
	case transport.StateFinWait2:
		m.enterTimeWait()
	}
}

// closeWrite implements ConnManager.
func (m *cmCore) closeWrite() {
	m.conn.osr.closeWrite()
}

// streamFinished implements ConnManager: all data up to end has been
// handed to RD; place the FIN after it.
func (m *cmCore) streamFinished(end uint64) {
	if m.finQueued {
		return
	}
	m.finQueued = true
	m.finSeq = m.isn.Add(1).Add(int(uint32(end)))
	m.finSent = true
	switch m.st {
	case transport.StateEstablished:
		m.st = transport.StateFinWait1
	case transport.StateCloseWait:
		m.st = transport.StateLastAck
	}
	m.attempts = 0
	m.sendFIN()
}

// enterTimeWait starts the 2MSL timer, on the stack's queue
// (timeWaitQueue): nothing ever stops it, and a connection reset
// meanwhile is dead when it fires.
func (m *cmCore) enterTimeWait() {
	m.st = transport.StateTimeWait
	m.conn.stack.timeWait.wait(m.conn)
}

// section implements ConnManager: CM's bits on ordinary segments are
// just the (static) ISN — for TimerCM it is load-bearing, not
// redundant.
func (m *cmCore) section() tcpwire.CMSection {
	return tcpwire.CMSection{ISN: uint32(m.isn)}
}

func (m *cmCore) stop(err error) bool {
	if m.st == transport.StateClosed {
		return false
	}
	m.st, m.err = transport.StateClosed, err
	m.rexmit.Stop()
	return true
}

func (m *cmCore) isDead() bool { return m.st == transport.StateClosed }
func (m *cmCore) cause() error { return m.err }

// HandshakeCM is classical three-way-handshake connection management:
// it opens with SYN / SYN-ACK, numbered by its stack's ISN generator.
type HandshakeCM struct {
	cmCore
}

// handshakeLeaves is the leaf table of a connection run by a
// HandshakeCM.
var handshakeLeaves = metrics.ConcatLeaves(connLeaves, metrics.LeavesOf("cm", new(cmMetrics).each))

// Stats returns a snapshot of the CM counters.
func (m *HandshakeCM) Stats() metrics.View { return metrics.ViewOf(m.m.each) }

// leaves and each implement instrumentedCM.
func (m *HandshakeCM) leaves() *metrics.Leaves                 { return handshakeLeaves }
func (m *HandshakeCM) each(f func(string, metrics.Instrument)) { m.m.each(f) }

// open implements ConnManager.
func (m *HandshakeCM) open(active bool, first cmView) {
	m.isn = seg.Seq(m.conn.stack.isn.ISN(m.conn.dm.flow(), m.conn.now()))
	if active {
		m.st = transport.StateSynSent
		m.sendSYN()
		return
	}
	// Passive: DM built the connection on a SYN (Stack.admits).
	m.peerISN = first.isn
	m.st = transport.StateSynRcvd
	m.sendSYNACK()
}

// sendSYN emits the active-open SYN with bootstrap retransmission.
func (m *HandshakeCM) sendSYN() {
	m.m.synSent.Inc()
	m.conn.dm.xmitCM(tcpwire.CMSection{SYN: true, ISN: uint32(m.isn)},
		m.isn, 0, false)
	m.armRexmit()
}

func (m *HandshakeCM) sendSYNACK() {
	m.m.synSent.Inc()
	m.conn.dm.xmitCM(tcpwire.CMSection{SYN: true, ISN: uint32(m.isn)},
		m.isn, m.peerISN.Add(1), true)
	m.armRexmit()
}

// onTimer is the callback of both CM timers: SYN and SYN-ACK
// retransmission here, the rest in onCloseTimer. A firing after the
// connection ended finds CLOSED, which neither handles.
func (m *HandshakeCM) onTimer() {
	switch m.st {
	case transport.StateSynSent:
		m.m.synRetransmits.Inc()
		m.sendSYN()
	case transport.StateSynRcvd:
		m.m.synRetransmits.Inc()
		m.sendSYNACK()
	default:
		m.onCloseTimer()
	}
}

// onSegment implements ConnManager — the CM half of segment arrival.
func (m *HandshakeCM) onSegment(v cmView) bool {
	if m.onReset(v) {
		return false
	}
	switch m.st {
	case transport.StateSynSent:
		if v.syn && v.ackValid && v.ack == m.isn.Add(1) {
			m.peerISN = v.isn
			m.cancelRexmit()
			m.establish()
			// The handshake-completing ACK.
			m.conn.rd.AckNow()
		}
		return false
	case transport.StateSynRcvd:
		if v.syn && !v.ackValid {
			// Duplicate SYN: our SYN-ACK was lost.
			m.sendSYNACK()
			return false
		}
		if v.ackValid && v.ack == m.isn.Add(1) {
			m.cancelRexmit()
			m.establish()
			return true // the segment may carry data
		}
		return false
	case transport.StateClosed, transport.StateListen:
		return false
	}

	// Established and closing states.
	if v.syn {
		// Peer retransmitted its SYN-ACK: our ACK was lost.
		m.conn.rd.AckNow()
	}
	m.onFin(v)
	return !v.syn
}

func (m *HandshakeCM) establish() {
	m.st = transport.StateEstablished
	m.conn.rd.Established(m.isn, m.peerISN)
	m.conn.onEstablished()
}
