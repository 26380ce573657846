package sublayered

import (
	"time"

	"repro/internal/ccontrol"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// OSR is the uppermost sublayer: Ordering, Segmenting and Rate control
// (§3). "OSR takes the byte stream and breaks it up into segments
// based on parameters like maximum segment size. At the receive end,
// segments may be delivered out of order by the RD sublayer. OSR must
// paste segments back in order. ... Rate control is hidden within OSR
// which interfaces with the RD sublayer below by deciding when a
// segment is 'ready' to be transmitted."
//
// OSR's window ("a way to control the sending rate") is deliberately
// distinct from RD's window (outstanding segments) — §3.1: "These two
// concepts are conflated in TCP; it is reasonable to separate them."
type OSR struct {
	conn *Conn
	cc   ccontrol.Controller

	// Send half.
	sb       seg.SendBuffer
	nextSeg  uint64 // next stream offset to hand to RD
	cumAcked uint64
	peerWnd  int
	closeAt  uint64
	probe    netsim.Timer

	// Pacing: when the controller publishes a rate, pump spaces segment
	// releases instead of bursting the whole window. nextRelease is the
	// simulated instant the next segment may leave.
	pace        netsim.Timer
	nextRelease netsim.Time

	// Receive half: read holds what the application has not read yet.
	ra    seg.Reassembly
	read  seg.ReadBuffer
	endAt uint64

	// The one-bit state of both halves, side by side so that it shares
	// a word (TestConnSizeClass).
	closed, finAsked, cwrPending    bool // send
	endValid, eofDelivered, eceEcho bool // receive

	m osrMetrics
}

// osrMetrics instruments ordering/segmenting/rate-control events.
type osrMetrics struct {
	segmentsReady    metrics.Counter
	bytesSegmented   metrics.Counter
	bytesReassembled metrics.Counter
	windowStalls     metrics.Counter // pump blocked by min(cwnd, rwnd)
	zeroWindowProbes metrics.Counter
	ecnReactions     metrics.Counter
}

func (m *osrMetrics) each(f func(string, metrics.Instrument)) {
	f("segments_ready", &m.segmentsReady)
	f("bytes_segmented", &m.bytesSegmented)
	f("bytes_reassembled", &m.bytesReassembled)
	f("window_stalls", &m.windowStalls)
	f("zero_window_probes", &m.zeroWindowProbes)
	f("ecn_reactions", &m.ecnReactions)
}

// init readies the OSR half of c in place: like RD, OSR's state — send
// buffer and reassembly included — is a value inside the Conn. The
// congestion controller stays behind its interface: it is the part of
// OSR that is replaceable by design (E8, E12). send is an array for
// the send buffer, given back by a finished connection (connParts), or
// nil.
func (o *OSR) init(c *Conn, cc ccontrol.Controller, send []byte) {
	o.conn = c
	o.cc = cc
	o.sb.Init(transport.BufSize)
	o.sb.Adopt(send)
	o.ra.Init(transport.BufSize)
	o.peerWnd = 65535
}

// onProbeTimer and onPaceTimer are the timer callbacks (connParts).
func (o *OSR) onProbeTimer() {
	if o.conn.cm.isDead() {
		return
	}
	if o.peerWnd > 0 || o.sb.End() == o.nextSeg {
		o.pump()
		return
	}
	// Send one byte beyond the window as a probe.
	if o.sb.End() > o.nextSeg {
		o.m.zeroWindowProbes.Inc()
		data := o.sb.View(o.nextSeg, 1)
		off := o.nextSeg
		o.nextSeg++
		o.conn.rd.Send(off, data)
	}
	o.armProbe(0)
}

func (o *OSR) onPaceTimer() {
	if !o.conn.cm.isDead() {
		o.pump()
	}
}

// Stats returns a snapshot of the OSR counters.
func (o *OSR) Stats() metrics.View { return metrics.ViewOf(o.m.each) }

// CC exposes the congestion controller (read-only use: stats, E8). It
// is nil once the connection has released its parts (connParts): the
// controller went back to the stack for the next connection.
func (o *OSR) CC() ccontrol.Controller { return o.cc }

// write queues application bytes, returning how many were accepted.
func (o *OSR) write(p []byte) int {
	if o.closed {
		return 0
	}
	n := o.sb.Write(p)
	o.pump()
	return n
}

// closeWrite ends the outgoing stream; the FIN is requested from CM
// once everything queued has been segmented.
func (o *OSR) closeWrite() {
	if o.closed {
		return
	}
	o.closed = true
	o.closeAt = o.sb.End()
	o.maybeFinish()
}

// pump releases segments to RD while the rate-control window — the
// minimum of the congestion window and the peer's advertised flow
// window — has room. This is the single point where OSR "decides when
// a segment is ready."
func (o *OSR) pump() {
	if !o.conn.rd.isEstablished() {
		return // segments become "ready" only once CM delivers ISNs
	}
	rate := o.cc.PacingRate()
	for {
		avail := o.sb.End() - o.nextSeg
		if avail == 0 {
			break
		}
		window := o.cc.Window()
		if o.peerWnd < window {
			window = o.peerWnd
		}
		inflight := int(o.nextSeg - o.cumAcked)
		room := window - inflight
		if room <= 0 {
			o.m.windowStalls.Inc()
			o.armProbe(inflight)
			break
		}
		n := transport.MSS
		if uint64(n) > avail {
			n = int(avail)
		}
		if n > room {
			n = room
		}
		// Sender-side silly-window avoidance: when the peer's window
		// (not the congestion window) leaves only a sliver, wait for a
		// window update instead of emitting a tiny segment — otherwise
		// every flow-control round trip fragments the stream.
		// Congestion-window slivers are still sent: they carry the ack
		// clock during recovery. The final bytes of a stream always go.
		if n < transport.MSS && uint64(n) < avail && inflight > 0 &&
			o.peerWnd-inflight < transport.MSS && o.cc.Window()-inflight >= transport.MSS {
			break
		}
		// Pacing: a rate-publishing controller (bbrlite) spaces releases
		// at n/rate instead of bursting the window; window-clocked
		// controllers report 0 and skip this entirely.
		if rate > 0 {
			now := o.conn.now()
			if now < o.nextRelease {
				o.armPace(o.nextRelease - now)
				break
			}
			gap := netsim.Time(float64(n) / rate * 1e9)
			o.nextRelease = now + gap
		}
		data := o.sb.View(o.nextSeg, n)
		o.m.segmentsReady.Inc()
		o.m.bytesSegmented.Add(uint64(n))
		off := o.nextSeg
		o.nextSeg += uint64(n)
		o.conn.rd.Send(off, data)
	}
	o.maybeFinish()
}

// armPace schedules the next pump when pacing defers a release.
func (o *OSR) armPace(d netsim.Time) {
	if o.pace.Active() {
		return
	}
	o.pace = o.conn.arm(time.Duration(d), paceTimer)
}

// armProbe guards against the zero-window deadlock: if the peer closed
// its window and nothing is in flight to elicit an update, probe with
// one byte after a persist interval.
func (o *OSR) armProbe(inflight int) {
	if inflight > 0 || o.probe.Active() {
		return
	}
	if o.peerWnd > 0 {
		return // stalled on cwnd; acks will reopen it
	}
	o.probe = o.conn.arm(500*time.Millisecond, probeTimer)
}

// maybeFinish notifies CM when the outgoing stream is fully segmented.
// Nothing can finish before the connection establishes (a close during
// the handshake waits; onEstablished pumps, which re-checks).
func (o *OSR) maybeFinish() {
	if o.closed && !o.finAsked && o.nextSeg == o.closeAt && o.conn.rd.isEstablished() {
		o.finAsked = true
		o.conn.cm.streamFinished(o.closeAt)
	}
}

// onAcked is RD's upward signal: cumulative stream offset acked, newly
// acked byte count, and an RTT sample (0 when invalid under Karn's
// rule). OSR advances its windows — "the sending RD must tell the
// sending OSR when segments are acked so the sending OSR can advance
// the congestion and flow control windows" — and folds the delivery
// bookkeeping it already owns into the controller's AckSample, so
// rate-estimating controllers (bbrlite) get their samples without any
// new sublayer crossing.
func (o *OSR) onAcked(cum uint64, newly int, rtt time.Duration) {
	freed := false
	if cum > o.cumAcked {
		o.cumAcked = cum
		o.sb.Release(cum)
		freed = true
	}
	o.cc.OnAck(ccontrol.AckSample{
		Acked:     newly,
		RTT:       rtt,
		Delivered: o.cumAcked,
		InFlight:  int(o.nextSeg - o.cumAcked),
		Now:       time.Duration(o.conn.now()),
	})
	o.pump()
	if freed {
		notify(o.conn.OnWritable)
	}
}

// onLoss is RD's summarized congestion signal: "congestion signals
// such as timeouts and loss information should be summarized and passed
// by RD to OSR" (§3).
func (o *OSR) onLoss(kind ccontrol.LossKind) {
	o.cc.OnLoss(ccontrol.LossEvent{Kind: kind})
	o.pump()
}

// deliver accepts an exactly-once (but possibly out-of-order) segment
// from RD and pastes the stream back together. For a segment that
// arrived in order, appending it to the read buffer is the only copy
// between the wire buffer and the reader.
func (o *OSR) deliver(off uint64, data []byte) {
	out := o.ra.Insert(off, data)
	if len(out) > 0 {
		o.m.bytesReassembled.Add(uint64(len(out)))
		o.read.Append(out)
		notify(o.conn.OnReadable)
		if o.conn.cm.isDead() {
			return
		}
	}
	o.checkEOF()
}

// setStreamEnd is CM's note of where the peer's stream ends.
func (o *OSR) setStreamEnd(off uint64) {
	o.endValid = true
	o.endAt = off
	o.checkEOF()
}

func (o *OSR) checkEOF() {
	if o.endValid && !o.eofDelivered && o.ra.Next() >= o.endAt {
		o.eofDelivered = true
		o.ra.Release() // the stream is whole: nothing is left to paste
		o.conn.cm.peerStreamComplete()
		o.read.Finish() // nothing more comes: keep only what is unread
		notify(o.conn.OnReadable)
	}
}

// onPeerHeader processes the peer's OSR bits: flow-control window and
// ECN echo (T3: congestion signals reach OSR via its own header).
// A released connection has nothing left to send and no controller to
// react (connParts).
func (o *OSR) onPeerHeader(h tcpwire.OSRSection) {
	o.peerWnd = int(h.Window)
	if o.cc == nil {
		return
	}
	if h.ECE {
		// The reaction guard (one cut per congested window) is the
		// controller's own business now — OSR just forwards the mark and
		// always acknowledges the echo with CWR. The reaction counter
		// reflects what the controller actually did.
		before := o.cc.Window()
		o.cc.OnECN()
		if o.cc.Window() < before {
			o.m.ecnReactions.Inc()
		}
		o.cwrPending = true
	}
	o.pump()
}

// noteECNMark records a congestion-experienced mark on a received
// packet; the next outgoing segment echoes ECE to the peer.
func (o *OSR) noteECNMark() { o.eceEcho = true }

// Section fills OSR's bits of an outgoing segment: the advertised
// receive window and the ECN echo/response bits.
func (o *OSR) Section() tcpwire.OSRSection {
	s := tcpwire.OSRSection{Window: o.window(), ECE: o.eceEcho, CWR: o.cwrPending}
	o.eceEcho = false
	o.cwrPending = false
	return s
}

// window is the advertised flow-control window: free receive buffer
// minus bytes the application has not read yet.
func (o *OSR) window() uint16 {
	free := o.ra.Free() - o.read.Len()
	if free < 0 {
		free = 0
	}
	if free > 65535 {
		free = 65535
	}
	return uint16(free)
}

// stop cancels timers, drops the receive storage no reader needs, and
// hands over the controller and the send buffer's array for the next
// connection (connParts): nil for what OSR gave already. The read
// buffer stays: the application may still read what arrived.
func (o *OSR) stop() (ccontrol.Controller, []byte) {
	o.probe.Stop()
	o.pace.Stop()
	o.ra.Release()
	o.read.Finish()
	cc := o.cc
	o.cc = nil
	return cc, o.sb.Detach()
}
