package sublayered

import (
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// TimerCM is Watson-style timer-based connection management (the
// paper's §3 suggestion that connection management could be replaced
// "by a timer-based scheme [31]"): no SYN handshake at all. The opener
// picks an ISN from a strictly monotonic clock and starts sending
// immediately; every segment carries the sender's ISN in the CM
// section (which the Fig. 6 header provides anyway), so the receiver
// creates state on the first segment. Delayed duplicates from earlier
// incarnations are rejected by remembering, per peer, the last ISN
// accepted and requiring new incarnations to be strictly newer —
// Watson's bounded-lifetime assumption enforced with the simulator's
// bounded maximum packet lifetime.
//
// Teardown still uses FIN with bootstrap retransmission; Watson's
// contribution replaced the establishment handshake, and the quiet
// period after close plays the role of his Δt state-holding timer.
//
// TimerCM only runs native mode (a standard TCP peer expects SYNs) and
// saves one round trip on connection setup — the measurable benefit
// the E8 replace experiment reports.
type TimerCM struct {
	reg *IncarnationRegistry

	conn     *Conn
	st       CMState
	isn      seg.Seq
	peerISN  seg.Seq
	havePeer bool

	// timerFn is onTimer as a func value, built once per connection and
	// passed to every arm; announced and the state say what a firing
	// means.
	rexmit    netsim.Timer
	timerFn   func()
	announced bool
	attempts  int

	finSeq    seg.Seq
	finQueued bool
	finSent   bool
	finAcked  bool

	remoteFinSeen bool
}

// IncarnationRegistry is the per-host memory that stands in for
// Watson's bounded packet lifetime: the newest ISN accepted from each
// (peer, port pair), so stale incarnations are rejected. Share one
// registry across all TimerCM instances of a host.
type IncarnationRegistry struct {
	last map[tcpwire.FlowKey]seg.Seq
}

// NewIncarnationRegistry returns an empty registry.
func NewIncarnationRegistry() *IncarnationRegistry {
	return &IncarnationRegistry{last: make(map[tcpwire.FlowKey]seg.Seq)}
}

// accept reports whether isn begins a fresh incarnation for key and
// records it.
func (r *IncarnationRegistry) accept(key tcpwire.FlowKey, isn seg.Seq) bool {
	if last, ok := r.last[key]; ok && !last.Less(isn) {
		return false
	}
	r.last[key] = isn
	return true
}

// NewTimerCM returns a timer-based connection manager. All managers of
// one host must share the registry.
func NewTimerCM(reg *IncarnationRegistry) *TimerCM {
	return &TimerCM{reg: reg, st: StateClosed}
}

// Name implements ConnManager.
func (m *TimerCM) Name() string { return "timer-based(watson)" }

func (m *TimerCM) attach(c *Conn) {
	m.conn = c
	m.timerFn = m.onTimer
}

// onTimer is the callback of all three CM timers. The zero-delay
// announcement is armed in open, before anything else on the connection
// and earlier than any retransmission or quiet period can expire, so
// the first firing is always that one; after it the state names what
// was armed, as in HandshakeCM.onTimer.
func (m *TimerCM) onTimer() {
	if m.conn.dead {
		return
	}
	switch {
	case !m.announced:
		m.announced = true
		m.conn.onEstablished()
	case m.st == StateTimeWait:
		m.st = StateClosed
		m.conn.destroy(nil)
	case m.st == StateFinWait1 || m.st == StateClosing || m.st == StateLastAck:
		m.sendFIN()
	}
}

func (m *TimerCM) state() CMState { return m.st }

func (m *TimerCM) localFinSeq() seg.Seq {
	if !m.finSent {
		return 0
	}
	return m.finSeq
}

// open implements ConnManager. Active opens are established instantly;
// passive opens accept any fresh-incarnation first segment.
func (m *TimerCM) open(active bool, first *cmView) {
	// Strictly monotonic clock ISN: virtual nanoseconds. Two opens in
	// the same instant to the same peer share an incarnation, which
	// the registry rejects — real Watson clocks tick per connection;
	// mix the local port in for uniqueness.
	m.isn = seg.Seq(uint32(int64(m.conn.now())/64)) + seg.Seq(m.conn.key.SrcPort)<<20
	if active {
		m.st = StateEstablished
		m.conn.rd.Established(m.isn, 0) // peer ISN learned from first inbound
		m.conn.rd.SuppressAcksUntilPeerISN()
		// Deferred one tick so Dial's caller can register callbacks
		// before OnConnected fires (there is no handshake to wait for).
		m.conn.stack.sim.ScheduleTimer(0, m.timerFn)
		return
	}
	if first == nil || first.syn {
		// A SYN means the peer is a handshake implementation: not ours.
		m.conn.destroy(ErrReset)
		return
	}
	if !m.reg.accept(m.conn.key, first.isn) {
		m.conn.destroy(ErrReset) // stale incarnation
		return
	}
	m.peerISN = first.isn
	m.havePeer = true
	m.st = StateEstablished
	m.conn.rd.Established(m.isn, m.peerISN)
	// Deferred so the listener's OnAccept can register callbacks first.
	m.conn.stack.sim.ScheduleTimer(0, m.timerFn)
}

// onSegment implements ConnManager.
func (m *TimerCM) onSegment(v cmView) bool {
	if v.rst {
		if m.st == StateLastAck || m.st == StateClosing || m.st == StateTimeWait {
			m.conn.destroy(nil)
		} else {
			m.conn.destroy(ErrReset)
		}
		return false
	}
	if !m.havePeer {
		// First inbound segment: learn the peer's ISN.
		m.peerISN = v.isn
		m.havePeer = true
		m.reg.accept(m.conn.key, v.isn)
		m.conn.rd.SetPeerISN(v.isn)
	} else if v.isn != m.peerISN {
		// A different incarnation while this one lives: drop it.
		return false
	}
	if v.fin && !m.remoteFinSeen {
		m.remoteFinSeen = true
		finSeq := v.seqNum.Add(v.payloadLen)
		m.conn.rd.SetRemoteFin(finSeq)
		m.conn.osr.setStreamEnd(m.conn.rd.rcvOffset(finSeq))
		m.conn.rd.AckNow()
	} else if v.fin {
		m.conn.rd.AckNow()
	}
	if m.finSent && !m.finAcked && v.ackValid && m.finSeq.Less(v.ack) {
		m.finAcked = true
		m.cancelRexmit()
		switch m.st {
		case StateFinWait1:
			m.st = StateFinWait2
		case StateClosing:
			m.enterTimeWait()
		case StateLastAck:
			m.st = StateClosed
			m.conn.destroy(nil)
		}
	}
	return true
}

// peerStreamComplete implements ConnManager.
func (m *TimerCM) peerStreamComplete() {
	switch m.st {
	case StateEstablished:
		m.st = StateCloseWait
	case StateFinWait1:
		m.st = StateClosing
	case StateFinWait2:
		m.enterTimeWait()
	}
}

// closeWrite implements ConnManager.
func (m *TimerCM) closeWrite() { m.conn.osr.closeWrite() }

// streamFinished implements ConnManager.
func (m *TimerCM) streamFinished(end uint64) {
	if m.finQueued {
		return
	}
	m.finQueued = true
	m.finSeq = m.isn.Add(1).Add(int(uint32(end)))
	m.finSent = true
	switch m.st {
	case StateEstablished:
		m.st = StateFinWait1
	case StateCloseWait:
		m.st = StateLastAck
	}
	m.attempts = 0
	m.sendFIN()
}

func (m *TimerCM) sendFIN() {
	m.conn.xmitCM(tcpwire.CMSection{FIN: true, ISN: uint32(m.isn)}, m.finSeq, 0, false)
	m.armRexmit()
}

func (m *TimerCM) armRexmit() {
	m.rexmit.Stop()
	m.attempts++
	if m.attempts > cmMaxAttempts {
		m.conn.destroy(ErrTimeout)
		return
	}
	m.rexmit = m.conn.stack.sim.ScheduleTimer(cmBackoff(m.attempts), m.timerFn)
}

func (m *TimerCM) cancelRexmit() {
	m.rexmit.Stop()
	m.attempts = 0
}

func (m *TimerCM) enterTimeWait() {
	m.st = StateTimeWait
	m.conn.stack.sim.ScheduleTimer(transport.TimeWait, m.timerFn)
}

// section implements ConnManager: the ISN rides on every segment — for
// TimerCM it is load-bearing, not redundant.
func (m *TimerCM) section() tcpwire.CMSection {
	return tcpwire.CMSection{ISN: uint32(m.isn)}
}

func (m *TimerCM) stop() { m.rexmit.Stop() }
