package sublayered

import (
	"time"

	"repro/internal/bufpool"
	"repro/internal/ccontrol"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport"
	"repro/internal/transport/seg"
)

// RD is the reliable-delivery sublayer (§3): "RD uses the ISNs supplied
// by the lower connection management layer to reliably (i.e., exactly
// once) deliver segments given by the upper layer (OSR). OSR gives RD a
// segment identified by its byte offset, and RD translates this to
// segment sequence numbers (by adding the ISN). ... All details of
// retransmission, including keeping track of a window of outstanding
// packets are encapsulated in RD."
//
// Interfaces (T2):
//
//	OSR → RD:  Send(offset, data)          — a segment is "ready"
//	RD → OSR:  onAcked(cum, newly, rtt)    — advance windows
//	           onLoss(kind)                — summarized congestion signal
//	           deliver(offset, data)       — exactly-once, possibly out
//	                                         of order; OSR reorders
//	CM → RD:   Established(localISN, peer) — the range of trustworthy
//	                                         sequence numbers
//	           SetRemoteFin(seq)           — where the peer's stream ends
//
// RD keeps its own copy of unacknowledged payloads; the paper's §3.1
// "replicated functionality" discussion accepts this modest state
// duplication as the price of separation.
type RD struct {
	conn *Conn

	// Sender half.
	isn    seg.Seq
	sndUna seg.Seq
	sndNxt seg.Seq
	// out[head:] is the window of unacknowledged segments in sequence
	// order (see outstanding). Acks retire records by advancing head,
	// and Send reuses them: the survivors move only when the tail meets
	// the end of the backing array with at least half of it retired.
	out        []outSeg
	head       int
	dupAcks    int
	inRecovery bool
	recover    seg.Seq
	rtt        seg.RTTEstimator
	rtoTimer   netsim.Timer
	// BSD-style single-segment RTT timing: one fresh segment is timed
	// at a time; the sample is discarded if anything is retransmitted
	// meanwhile (Karn's rule). Sampling arbitrary segments would poison
	// the estimator with acks that sat behind recovered holes.
	timing   bool
	timedEnd seg.Seq
	timedAt  netsim.Time
	// User timeout (RFC 793 §3.8): rtoStreak counts consecutive RTO
	// firings with no cumulative-ack progress; past transport.MaxRexmit
	// the connection aborts with transport.ErrTimeout.
	rtoStreak int

	// Receiver half.
	peerISN      seg.Seq
	ranges       seg.RangeSet
	remoteFinOff uint64
	remoteFin    bool
	// Delayed-ack state: one ack per two in-order segments, or after
	// the delay timer; out-of-order arrivals ack immediately so fast
	// retransmit still sees duplicate acks promptly.
	delayedAcks bool
	ackPending  int
	ackTimer    netsim.Timer
	established bool
	// ackable gates the Ack fields: timer-based CM establishes the
	// send direction before the peer's ISN is known, during which acks
	// would be meaningless.
	ackable     bool
	sackEnabled bool
	// sackScratch backs Section's SACK list between calls; the header
	// is marshaled before Section runs again, so reuse is safe.
	sackScratch [][2]uint32

	m rdMetrics
}

// rdMetrics instruments reliable-delivery events. The RTT histogram
// (milliseconds) records the Karn-valid samples that also feed the RTO
// estimator.
type rdMetrics struct {
	segmentsSent    metrics.Counter
	retransmits     metrics.Counter
	fastRetransmits metrics.Counter
	timeouts        metrics.Counter
	acksSent        metrics.Counter
	dupSegments     metrics.Counter
	deliveredBytes  metrics.Counter
	aborts          metrics.Counter
	rttMs           metrics.Histogram
}

// rttBoundsMs buckets RTT samples from LAN-ish to badly congested.
var rttBoundsMs = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// each lists RD's instruments under their leaf names — the one place
// they are named.
func (m *rdMetrics) each(f func(string, metrics.Instrument)) {
	f("segments_sent", &m.segmentsSent)
	f("retransmits", &m.retransmits)
	f("fast_retransmits", &m.fastRetransmits)
	f("timeouts", &m.timeouts)
	f("acks_sent", &m.acksSent)
	f("dup_segments", &m.dupSegments)
	f("delivered_bytes", &m.deliveredBytes)
	f("aborts", &m.aborts)
	f("rtt_ms", &m.rttMs)
}

type outSeg struct {
	seq     seg.Seq
	payload []byte
	sacked  bool
	// pending marks a segment presumed lost after a timeout; cumack
	// advances chain through pending segments one RTT apart instead of
	// one (backed-off) RTO apart.
	pending bool
}

// init readies the RD half of c in place. RD's state — the estimator
// and the RTT histogram included — is a value inside the Conn: one
// object holds the connection, and only RD's methods touch this part of
// it. out is an empty array for the retransmission queue, given back
// by a finished connection (connParts), or nil.
func (r *RD) init(c *Conn, sackEnabled, delayedAcks bool, out []outSeg) {
	r.conn = c
	r.out = out
	r.sackEnabled = sackEnabled
	r.delayedAcks = delayedAcks
	r.rtt.Init(time.Second, 200*time.Millisecond, 60*time.Second)
	r.m.rttMs.Init(rttBoundsMs)
}

// onRTOTimer and onAckTimer are the timer callbacks (connParts).
func (r *RD) onRTOTimer() {
	if !r.conn.cm.isDead() {
		r.onRTO()
	}
}

func (r *RD) onAckTimer() {
	if r.ackPending > 0 {
		r.AckNow()
	}
}

// Stats returns a snapshot of the RD counters ("rtt_ms" is the number
// of RTT samples taken).
func (r *RD) Stats() metrics.View { return metrics.ViewOf(r.m.each) }

// Established is CM's service delivered: a pair of ISNs "not present in
// the network so that segments and acks can be trusted as not being
// delayed duplicates."
func (r *RD) Established(localISN, peerISN seg.Seq) {
	r.conn.crossings.CMToRD.Inc()
	r.isn = localISN
	r.peerISN = peerISN
	r.sndUna = localISN.Add(1)
	r.sndNxt = r.sndUna
	r.established = true
	r.ackable = true
}

// SetPeerISN corrects the receive-direction ISN before any data has
// arrived. Timer-based connection management learns the peer's ISN
// from the first inbound segment rather than from a handshake.
func (r *RD) SetPeerISN(p seg.Seq) {
	if r.ranges.Len() == 0 && !r.remoteFin {
		r.peerISN = p
	}
	r.ackable = true
}

// SuppressAcksUntilPeerISN holds the Ack fields invalid until
// SetPeerISN supplies the receive-direction ISN.
func (r *RD) SuppressAcksUntilPeerISN() { r.ackable = false }

// SetRemoteFin records where the peer's byte stream ends (seq of its
// FIN), so cumulative acknowledgements can cover the FIN.
func (r *RD) SetRemoteFin(finSeq seg.Seq) {
	r.conn.crossings.CMToRD.Inc()
	r.remoteFin = true
	r.remoteFinOff = r.rcvOffset(finSeq)
}

// Send transmits stream bytes [off, off+len(data)) as one segment. OSR
// calls it when rate control deems the segment ready.
func (r *RD) Send(off uint64, data []byte) {
	r.conn.crossings.OSRToRD.Inc()
	r.conn.crossings.OSRBytes.Add(uint64(len(data)))
	// Offsets above 2^32 wrap; Seq arithmetic keeps working because
	// windows are far below 2^31.
	s := r.isn.Add(1).Add(int(uint32(off)))
	// The retransmission copy lives in a pooled buffer, recycled when
	// the segment is cumulatively acknowledged (onAck) or the
	// connection dies (stop).
	buf := bufpool.Get(len(data))
	copy(buf, data)
	now := r.conn.now()
	if len(r.out) == cap(r.out) && 2*r.head >= len(r.out) {
		r.out = r.out[:copy(r.out, r.out[r.head:])]
		r.head = 0
	}
	r.out = append(r.out, outSeg{seq: s, payload: buf})
	if !r.timing {
		r.timing = true
		r.timedEnd = s.Add(len(data))
		r.timedAt = now
	}
	if r.sndNxt.Less(s.Add(len(data))) {
		r.sndNxt = s.Add(len(data))
	}
	r.m.segmentsSent.Inc()
	r.conn.dm.trace("send", "", 0, uint32(s), len(data))
	r.conn.dm.xmitData(s, buf)
	r.armRTO()
}

// isEstablished reports whether CM has delivered the ISNs.
func (r *RD) isEstablished() bool { return r.established }

// NextSeq returns the sequence number a pure control segment should
// carry (TCP convention: snd.nxt).
func (r *RD) NextSeq() seg.Seq {
	if !r.established {
		return r.isn
	}
	return r.sndNxt
}

// una returns the oldest unacknowledged sequence number.
func (r *RD) una() seg.Seq { return r.sndUna }

// OnSegment processes the RD section of an arriving segment. Delivery
// runs the application's readable callback, which may abort the
// connection; nothing follows on a dead one.
func (r *RD) OnSegment(h *tcpwire.RDSection, payload []byte) {
	if len(payload) > 0 {
		r.onData(seg.Seq(h.Seq), payload)
		if r.conn.cm.isDead() {
			return
		}
	}
	if h.AckValid {
		r.onAck(seg.Seq(h.Ack), h.SACK, len(payload) > 0)
	}
}

// onData handles received stream bytes: dedup against the range set,
// deliver new bytes upward (possibly out of order — OSR reorders), and
// acknowledge.
func (r *RD) onData(s seg.Seq, payload []byte) {
	off, ok := r.rcvOffsetChecked(s)
	if !ok {
		// Sequence below the stream start: a stray from outside the
		// ISN-trusted range. Re-acknowledge and drop.
		r.m.dupSegments.Inc()
		r.AckNow()
		return
	}
	wasContig := r.ranges.ContiguousFrom(0)
	if off+uint64(len(payload)) > wasContig+transport.BufSize {
		// Sequence above anything the receive buffer could have
		// advertised: a peer that ignores the window. Accepting it
		// would let that peer park unbounded bytes in OSR.
		r.m.dupSegments.Inc()
		r.AckNow()
		return
	}
	inOrder := off == wasContig
	if r.ranges.Add(off, off+uint64(len(payload))) {
		r.m.deliveredBytes.Add(uint64(len(payload)))
		r.conn.crossings.RDToOSRDat.Inc()
		r.conn.osr.deliver(off, payload)
		if r.conn.cm.isDead() {
			return // aborted from the readable callback
		}
	} else {
		r.m.dupSegments.Inc()
		inOrder = false // duplicates must elicit an immediate (dup) ack
	}
	if !r.delayedAcks || !inOrder {
		r.AckNow()
		return
	}
	// In-order data under the delayed-ack policy: ack every second
	// segment, or when the delay expires.
	r.ackPending++
	if r.ackPending >= 2 {
		r.AckNow()
		return
	}
	if !r.ackTimer.Active() {
		r.ackTimer = r.conn.arm(50*time.Millisecond, ackTimer)
	}
}

// onAck advances the send window; dupAcks/SACK drive fast retransmit.
func (r *RD) onAck(ack seg.Seq, sack [][2]uint32, hadPayload bool) {
	// Bound the acknowledgement: nothing beyond what we sent (plus our
	// FIN, which lives one past the last byte) is acceptable.
	limit := r.sndNxt
	if fin := r.conn.cm.localFinSeq(); fin != 0 {
		limit = fin.Add(1)
	}
	if limit.Less(ack) {
		return // acknowledges data never sent: stray or corrupt
	}
	// Mark SACKed segments.
	for _, b := range sack {
		from, to := seg.Seq(b[0]), seg.Seq(b[1])
		out := r.outstanding()
		for i := range out {
			if o := &out[i]; from.Leq(o.seq) && o.seq.Add(len(o.payload)).Leq(to) {
				o.sacked = true
			}
		}
	}
	switch {
	case r.sndUna.Less(ack):
		// New data acknowledged.
		newly := 0
		var rttSample time.Duration
		// Segments are sent in stream order and never overlap, so the
		// acknowledged ones are a prefix of the window.
		for r.head < len(r.out) {
			o := &r.out[r.head]
			if !o.seq.Add(len(o.payload)).Leq(ack) {
				break
			}
			newly += len(o.payload)
			bufpool.Put(o.payload) // segment retired: recycle its buffer
			o.payload = nil
			r.head++
		}
		if r.head == len(r.out) {
			r.out, r.head = r.out[:0], 0
		}
		if r.timing && r.timedEnd.Leq(ack) {
			rttSample = time.Duration(r.conn.now() - r.timedAt)
			r.timing = false
		}
		r.sndUna = ack
		if r.sndNxt.Less(r.sndUna) {
			r.sndNxt = r.sndUna
		}
		r.dupAcks = 0
		r.rtoStreak = 0 // forward progress resets the user timeout
		if rttSample > 0 {
			r.rtt.Sample(rttSample)
			r.m.rttMs.Observe(rttSample.Milliseconds())
		}
		switch {
		case r.inRecovery && ack.Less(r.recover):
			// NewReno partial ack: the next hole is lost too.
			r.retransmitFirst()
		case r.inRecovery:
			r.inRecovery = false
		default:
			// Post-timeout chaining: if the advance exposes a segment
			// marked lost, retransmit it immediately rather than
			// waiting out another (backed-off) RTO.
			for _, o := range r.outstanding() {
				if o.sacked {
					continue
				}
				if o.pending {
					r.retransmitFirst()
				}
				break
			}
		}
		r.armRTO()
		cum := uint64(0)
		if r.established {
			d := ack.Diff(r.isn.Add(1))
			if d > 0 {
				cum = uint64(d)
				if fin := r.conn.cm.localFinSeq(); fin != 0 && seg.Seq(fin).Less(ack) {
					cum-- // the ack covers our FIN, which is not a stream byte
				}
			}
		}
		r.conn.dm.trace("cumack", "", 0, uint32(ack), newly)
		r.conn.crossings.RDToOSRAck.Inc()
		r.conn.osr.onAcked(cum, newly, rttSample)
	case ack == r.sndUna && !r.AllAcked() && !hadPayload:
		r.dupAcks++
		if r.dupAcks == 3 && !r.inRecovery {
			r.m.fastRetransmits.Inc()
			r.inRecovery = true
			r.recover = r.sndNxt
			r.retransmitFirst()
			r.conn.crossings.RDToOSRLos.Inc()
			r.conn.osr.onLoss(ccontrol.LossFast)
		}
	}
}

// retransmitFirst resends the oldest unacknowledged, un-SACKed segment.
func (r *RD) retransmitFirst() {
	out := r.outstanding()
	for i := range out {
		o := &out[i]
		if o.sacked {
			continue
		}
		if r.timing && o.seq.Less(r.timedEnd) {
			r.timing = false // Karn: the timed segment's ack is now ambiguous
		}
		o.pending = false
		r.m.retransmits.Inc()
		r.conn.dm.trace("rexmit", "", 0, uint32(o.seq), len(o.payload))
		r.conn.dm.xmitData(o.seq+seg.Seq(FaultRexmitOffset), o.payload)
		return
	}
}

func (r *RD) armRTO() {
	r.rtoTimer.Stop()
	if r.AllAcked() {
		return
	}
	r.rtoTimer = r.conn.arm(r.rtt.RTO(), rtoTimer)
}

func (r *RD) onRTO() {
	if r.AllAcked() {
		return
	}
	r.m.timeouts.Inc()
	r.rtoStreak++
	r.conn.dm.trace("rto", "", 0, uint32(r.sndUna), r.rtoStreak)
	if r.rtoStreak > transport.MaxRexmit {
		// User timeout: the data path has made no progress across
		// transport.MaxRexmit consecutive RTOs. Give up and surface the
		// abort rather than retransmit into a partition forever.
		r.m.aborts.Inc()
		r.conn.destroy(transport.ErrTimeout)
		return
	}
	r.rtt.Backoff()
	r.dupAcks = 0
	r.inRecovery = false
	// Everything outstanding is presumed lost; retransmit the first
	// now and chain the rest as acknowledgements return.
	out := r.outstanding()
	for i := range out {
		out[i].pending = true
	}
	r.retransmitFirst()
	r.armRTO()
	r.conn.crossings.RDToOSRLos.Inc()
	r.conn.osr.onLoss(ccontrol.LossTimeout)
}

// AckNow emits a pure acknowledgement reflecting everything received,
// unless the connection is dead: an application callback on the way
// here (connected, or readable at the peer's FIN) may have aborted it,
// and nothing follows its RST.
func (r *RD) AckNow() {
	if r.conn.cm.isDead() {
		return
	}
	r.ackPending = 0
	r.ackTimer.Stop()
	r.m.acksSent.Inc()
	r.conn.dm.xmitData(r.NextSeq(), nil)
}

// Section fills RD's bits of an outgoing segment.
func (r *RD) Section(seqNum seg.Seq) tcpwire.RDSection {
	s := tcpwire.RDSection{Seq: uint32(seqNum)}
	if r.established && r.ackable {
		s.AckValid = true
		s.Ack = uint32(r.currentAck())
		if r.sackEnabled {
			cum := r.ranges.ContiguousFrom(0)
			sb := r.sackScratch[:0]
			for _, b := range r.ranges.BlocksAbove(cum, 3) {
				sb = append(sb, [2]uint32{
					uint32(r.peerISN.Add(1 + int(uint32(b[0])))),
					uint32(r.peerISN.Add(1 + int(uint32(b[1])))),
				})
			}
			r.sackScratch = sb
			if len(sb) > 0 {
				s.SACK = sb
			}
		}
	}
	return s
}

// currentAck is the cumulative acknowledgement: contiguous stream
// bytes, plus one for the peer's FIN once the stream is complete.
func (r *RD) currentAck() seg.Seq {
	cum := r.ranges.ContiguousFrom(0)
	ack := r.peerISN.Add(1 + int(uint32(cum)))
	if r.remoteFin && cum >= r.remoteFinOff {
		ack = ack.Add(1)
	}
	return ack
}

// AllAcked reports whether every data byte handed to RD is
// acknowledged.
func (r *RD) AllAcked() bool { return r.head == len(r.out) }

// outstanding is the window of unacknowledged segments, oldest first.
// It aliases RD's records and is valid until the next Send or ack.
func (r *RD) outstanding() []outSeg { return r.out[r.head:] }

// InFlight returns unacknowledged bytes (the RD window of §3.1: "for
// RD a window is the range of outstanding segments").
func (r *RD) InFlight() int {
	n := 0
	for _, o := range r.outstanding() {
		n += len(o.payload)
	}
	return n
}

// rcvOffset maps a receive-side sequence number to a stream offset
// (bytes since peerISN+1), unwrapping mod 2^32 around the current
// contiguous point.
func (r *RD) rcvOffset(s seg.Seq) uint64 {
	off, _ := r.rcvOffsetChecked(s)
	return off
}

func (r *RD) rcvOffsetChecked(s seg.Seq) (uint64, bool) {
	base := r.ranges.ContiguousFrom(0)
	baseSeq := r.peerISN.Add(1 + int(uint32(base)))
	o := int64(base) + int64(s.Diff(baseSeq))
	if o < 0 {
		return 0, false
	}
	return uint64(o), true
}

// stop cancels timers and recycles unacknowledged segment buffers when
// the connection finishes, and hands over the window's array, emptied,
// for the next connection (connParts): nil when RD has none, or gave it
// already.
func (r *RD) stop() []outSeg {
	r.rtoTimer.Stop()
	r.ackTimer.Stop()
	for _, o := range r.outstanding() {
		bufpool.Put(o.payload)
	}
	out := r.out
	if out != nil {
		clear(out[:cap(out)]) // the records still name pooled buffers
		out = out[:0]
	}
	r.out, r.head = nil, 0
	return out
}
