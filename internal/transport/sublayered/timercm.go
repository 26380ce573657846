package sublayered

import (
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
// Watson's contribution replaced the establishment handshake only:
// teardown is cmCore's, FIN with bootstrap retransmission, shared with
// HandshakeCM, and the quiet period after close plays the role of his
// Δt state-holding timer.
//
// TimerCM only runs native mode (a standard TCP peer expects SYNs) and
// saves one round trip on connection setup — the measurable benefit
// the E8 replace experiment reports.
type TimerCM struct {
	cmCore
	// havePeer is set once the peer's ISN is known; announced once
	// the zero-delay timer has told the application it is connected.
	havePeer  bool
	announced bool
}

// incarnations is the per-host memory that stands in for Watson's
// bounded packet lifetime: the newest ISN accepted from each (peer,
// port pair), so stale incarnations are rejected. Every TimerCM of a
// Stack shares its stack's.
type incarnations map[tcpwire.FlowKey]seg.Seq

// accept reports whether isn begins a fresh incarnation for key and
// records it.
func (r incarnations) accept(key tcpwire.FlowKey, isn seg.Seq) bool {
	if last, ok := r[key]; ok && !last.Less(isn) {
		return false
	}
	r[key] = isn
	return true
}

// onTimer is the callback of all three CM timers. The zero-delay
// announcement is armed in open, before anything else on the connection
// and earlier than any retransmission or quiet period can expire, so
// the first firing is always that one; the rest are onCloseTimer's,
// which ignores CLOSED, as does an announcement after an abort.
func (m *TimerCM) onTimer() {
	if !m.announced && !m.isDead() {
		m.announced = true
		m.conn.onEstablished()
		return
	}
	m.onCloseTimer()
}

// open implements ConnManager. Active opens are established instantly;
// a passive open is established on its first segment.
func (m *TimerCM) open(active bool, first cmView) {
	// Strictly monotonic clock ISN: virtual nanoseconds. Two opens in
	// the same instant to the same peer share an incarnation, which
	// the registry rejects — real Watson clocks tick per connection;
	// mix the local port in for uniqueness.
	m.isn = seg.Seq(uint32(int64(m.conn.now())/64)) + seg.Seq(m.conn.dm.flow().SrcPort)<<20
	if active {
		m.st = transport.StateEstablished
		m.conn.rd.Established(m.isn, 0) // peer ISN learned from first inbound
		m.conn.rd.SuppressAcksUntilPeerISN()
		// Deferred one tick so Dial's caller can register callbacks
		// before OnConnected fires (there is no handshake to wait for).
		m.conn.announce()
		return
	}
	// Passive: DM built the connection on a first segment of a fresh
	// incarnation, which Stack.admits has recorded.
	m.peerISN = first.isn
	m.havePeer = true
	m.st = transport.StateEstablished
	m.conn.rd.Established(m.isn, m.peerISN)
	// Deferred so the listener's OnAccept can register callbacks first.
	m.conn.announce()
}

// onSegment implements ConnManager.
func (m *TimerCM) onSegment(v cmView) bool {
	if m.onReset(v) {
		return false
	}
	if !m.havePeer {
		// First inbound segment: learn the peer's ISN.
		m.peerISN = v.isn
		m.havePeer = true
		m.conn.stack.incarnations.accept(m.conn.dm.flow(), v.isn)
		m.conn.rd.SetPeerISN(v.isn)
	} else if v.isn != m.peerISN {
		// A different incarnation while this one lives: drop it.
		return false
	}
	m.onFin(v)
	return true
}
