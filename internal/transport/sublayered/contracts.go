package sublayered

import (
	"repro/internal/transport"
	"repro/internal/transport/seg"
	"repro/internal/verify"
)

// Runtime contracts — the paper's debugging claim made executable: "we
// can localize bugs to sublayers (by examining which sublayer fails
// its contract) compared to a monolithic implementation." Each
// sublayer owns a named invariant set over its own state; the Conn
// evaluates them after every segment when a Checker is configured
// (tests run with ModePanic; without a Checker it costs a nil check).
//
// The contract names are prefixed with the owning sublayer, so a
// violation message identifies the faulty module directly.

// checkInvariants evaluates every sublayer's contract.
func (c *Conn) checkInvariants() {
	ck := c.stack.cfg.Contracts
	if ck == nil || c.cm.isDead() {
		return
	}
	c.rd.contract(ck)
	c.osr.contract(ck)
	cmContract(ck, c.cm)
}

// contract is RD's invariant set: the send window is well-ordered, the
// outstanding list matches it, and the receive ranges never run ahead
// of what acknowledgements admit.
func (r *RD) contract(ck *verify.Checker) {
	if !r.established {
		return
	}
	ck.Check(r.sndUna.Leq(r.sndNxt), "rd/window-ordered",
		"sndUna %d beyond sndNxt %d", r.sndUna, r.sndNxt)
	// Outstanding segments lie within [sndUna, sndNxt).
	for _, o := range r.outstanding() {
		ck.Check(!o.seq.Add(len(o.payload)).Leq(r.sndUna), "rd/outstanding-live",
			"outstanding segment %d..%d already acknowledged at %d",
			o.seq, o.seq.Add(len(o.payload)), r.sndUna)
		ck.Check(o.seq.Add(len(o.payload)).Leq(r.sndNxt), "rd/outstanding-bounded",
			"outstanding segment ends %d beyond sndNxt %d",
			o.seq.Add(len(o.payload)), r.sndNxt)
	}
	// Unacknowledged byte count equals the window the segments span
	// only when nothing is acknowledged out of order; it never exceeds
	// the span.
	ck.Check(r.InFlight() <= r.sndNxt.Diff(r.sndUna), "rd/inflight-bounded",
		"in flight %d exceeds window span %d", r.InFlight(), r.sndNxt.Diff(r.sndUna))
	// Receiver: the cumulative point is the end of the first range.
	if rs := r.ranges.Ranges(); len(rs) > 0 {
		ck.Check(rs[0][0] == 0 || r.ranges.ContiguousFrom(0) == 0, "rd/cum-consistent",
			"first range %v but contiguous-from-0 %d", rs[0], r.ranges.ContiguousFrom(0))
	}
	if r.remoteFin {
		ck.Check(r.ranges.ContiguousFrom(0) <= r.remoteFinOff, "rd/fin-bound",
			"received %d bytes beyond the peer's FIN at %d",
			r.ranges.ContiguousFrom(0), r.remoteFinOff)
	}
}

// contract is OSR's invariant set: offsets advance monotonically and
// the buffers agree with them.
func (o *OSR) contract(ck *verify.Checker) {
	ck.Check(o.cumAcked <= o.nextSeg, "osr/acked-behind-sent",
		"cumAcked %d beyond nextSeg %d", o.cumAcked, o.nextSeg)
	ck.Check(o.nextSeg <= o.sb.End(), "osr/sent-within-buffer",
		"nextSeg %d beyond buffered end %d", o.nextSeg, o.sb.End())
	ck.Check(o.sb.Base() <= o.cumAcked || o.sb.Len() == 0, "osr/release-matches-ack",
		"buffer base %d ahead of cumAcked %d", o.sb.Base(), o.cumAcked)
	if o.closed {
		ck.Check(o.sb.End() == o.closeAt, "osr/closed-stable",
			"writes accepted after close: end %d, closed at %d", o.sb.End(), o.closeAt)
	}
	ck.Check(o.ra.Free() >= 0, "osr/window-nonneg", "negative receive window")
	if o.endValid {
		ck.Check(o.ra.Next() <= o.endAt, "osr/eof-bound",
			"reassembled %d bytes beyond stream end %d", o.ra.Next(), o.endAt)
	}
}

// cmContract checks the connection manager's externally visible
// invariants: a sane state and a FIN placed after the stream it ends.
func cmContract(ck *verify.Checker, cm ConnManager) {
	st := cm.state()
	ck.Check(st >= transport.StateClosed && st <= transport.StateTimeWait, "cm/state-valid",
		"state out of range: %d", int(st))
	if fin := cm.localFinSeq(); fin != 0 {
		closing := st == transport.StateFinWait1 || st == transport.StateFinWait2 || st == transport.StateClosing ||
			st == transport.StateLastAck || st == transport.StateTimeWait || st == transport.StateClosed
		ck.Check(closing, "cm/fin-implies-closing",
			"FIN sent (seq %d) but state is %v", seg.Seq(fin), st)
	}
}
