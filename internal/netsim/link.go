package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
)

// Packet is the unit carried by links: opaque bytes plus the ECN
// congestion-experienced mark (the simulator's stand-in for the IP ECN
// codepoint, which the OSR sublayer's congestion control reads).
type Packet struct {
	Data []byte
	ECN  bool
}

// Handler consumes delivered packets.
type Handler func(pkt *Packet)

// LinkConfig describes one direction of a point-to-point link.
type LinkConfig struct {
	// Delay is the propagation delay; Jitter adds a uniform random
	// extra delay in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
	// RateBps is the serialization rate in bits per second; zero means
	// infinitely fast (no serialization delay, no queue).
	RateBps int64
	// QueueLimit bounds the number of packets waiting for the
	// serializer (drop-tail). Zero means unbounded.
	QueueLimit int
	// ECNThreshold marks packets with congestion-experienced when the
	// queue occupancy at enqueue time is at least this many packets.
	// Zero disables marking.
	ECNThreshold int
	// LossProb drops a packet entirely.
	LossProb float64
	// DupProb delivers a packet twice (the copy trails by 1µs).
	DupProb float64
	// ReorderProb delays a packet by an extra uniform amount in
	// (0, 4×Delay] so later packets can overtake it.
	ReorderProb float64
	// CorruptProb flips one random bit of the payload. Error-detection
	// sublayers are expected to catch these.
	CorruptProb float64
}

// LinkMetrics counts what happened to traffic on a link. The fields
// are the single source of truth on every backend; Stats() projects
// them as a View and an attached registry adopts them under
// "netsim/link<n>". Exported so the real-time backends (channet,
// udpnet) count into the identical instrument shape.
//
// Down drops are split into a send-side and a receive-side counter
// because on the sharded engine the two ends of a link can execute on
// different shards; each side increments only its own counter (the
// single-writer rule) and the registry exports their sum under the
// historical "down_drop" name.
type LinkMetrics struct {
	Sent           metrics.Counter
	Delivered      metrics.Counter
	DeliveredBytes metrics.Counter
	Lost           metrics.Counter
	Duplicate      metrics.Counter
	Reordered      metrics.Counter
	Corrupted      metrics.Counter
	QueueDrop      metrics.Counter
	DownDrop       metrics.Counter // send side went down
	DownDropRecv   metrics.Counter // down detected at delivery time
	ECNMarked      metrics.Counter
	QueueDepth     metrics.Gauge
}

// each lists the link's instruments under their leaf names — the one
// place they are named.
func (m *LinkMetrics) each(f func(string, metrics.Instrument)) {
	f("sent", &m.Sent)
	f("delivered", &m.Delivered)
	f("delivered_bytes", &m.DeliveredBytes)
	f("lost", &m.Lost)
	f("duplicate", &m.Duplicate)
	f("reordered", &m.Reordered)
	f("corrupted", &m.Corrupted)
	f("queue_drop", &m.QueueDrop)
	f("down_drop", metrics.CounterSum{&m.DownDrop, &m.DownDropRecv})
	f("ecn_marked", &m.ECNMarked)
	f("queue_depth", &m.QueueDepth)
}

// linkName renders the creation-order link identity every backend
// shares: "link0", "link1", ...
func linkName(n int) string { return fmt.Sprintf("link%d", n) }

// linkSeed derives the impairment stream of link index idx from the
// world seed. Links draw loss/jitter/reorder/corrupt/dup from their own
// stream — a pure function of (seed, index, send count) — so the draws
// are identical whether the links execute sequentially or sharded.
func linkSeed(seed int64, idx int) int64 {
	return seed ^ (int64(idx)+1)*0x1E3779B97F4A7C15
}

// linkCore is the one link model every carriage shares: configuration,
// creation-order identity, counters, the link's own impairment stream
// and the serializer state, with the whole send-side pipeline in plan
// and the arrival half in arrived, plus the destination and the two
// event lanes its tagged events run through. It is what a tagged event
// points at, so one event layout serves every carriage: Link embeds it
// and posts a plan's events on an engine core, RTLinkCore embeds it and
// posts them on the wall clock's core. On the wall-clock backends every
// method needs the clock lock, like all protocol state.
type linkCore struct {
	cfg  LinkConfig
	name string // "link<n>" in creation order; trace/metrics identity
	m    LinkMetrics
	// rng is the link's own impairment stream, seeded from the world
	// seed and the link index, so draws depend only on this link's send
	// sequence — never on how events from other links interleave. That
	// independence is what keeps sequential and sharded runs
	// byte-identical.
	rng *rand.Rand
	// serializer state: the time at which the transmitter frees up.
	txFree Time
	queued int
	// up gates delivery: a downed link drops traffic, counting it as
	// down_drop (used by routing failure experiments and fault
	// injection).
	up  bool
	dst Handler
	// wire, when set, is where an evWire event hands a packet at its
	// arrival time instead of dst: a socket carriage writes it out, and
	// the real arrival comes back later as an evDeliver.
	wire func(data []byte, ecn bool)
	// deliveries is the link's lane on the receiving core, releases its
	// serializer's lane on the sending core (see lane in sim.go).
	deliveries, releases lane
}

// init configures the core in place as the backend's idx-th link,
// delivering to dst. It must run on the core's final address:
// registration hands out pointers to the counters.
func (l *linkCore) init(cfg LinkConfig, dst Handler, seed int64, idx int, msc *metrics.Scope) {
	if dst == nil {
		panic("netsim: NewLink with nil destination")
	}
	l.cfg, l.dst, l.up, l.name = cfg, dst, true, linkName(idx)
	l.rng = rand.New(rand.NewSource(linkSeed(seed, idx)))
	if msc != nil {
		l.m.each(msc.Sub(l.name).Register)
	}
}

// Name returns the link's creation-order identity ("link0", "link1",
// ...), matching its metrics scope and its trace/pcap interface name.
func (l *linkCore) Name() string { return l.name }

// SetUp raises or cuts the link. Packets sent (or already in flight)
// while down are counted as down_drop, distinct from random loss.
func (l *linkCore) SetUp(up bool) { l.up = up }

// Up reports whether the link is passing traffic.
func (l *linkCore) Up() bool { return l.up }

// SetLossProb replaces the link's random-loss probability at runtime.
// Fault injectors use this to overlay time-varying loss models (e.g.
// Gilbert–Elliott bursty loss) on top of a static configuration.
func (l *linkCore) SetLossProb(p float64) { l.cfg.LossProb = p }

// SetReorderProb replaces the link's reordering probability at
// runtime. Fault injectors use this to open bounded reordering windows
// (faults.Reorder) and restore the configured value afterwards.
func (l *linkCore) SetReorderProb(p float64) { l.cfg.ReorderProb = p }

// SetDupProb replaces the link's duplication probability at runtime.
func (l *linkCore) SetDupProb(p float64) { l.cfg.DupProb = p }

// Stats returns a view of the link counters (keys: sent, delivered,
// delivered_bytes, lost, duplicate, reordered, corrupted, queue_drop,
// down_drop, ecn_marked, queue_depth).
func (l *linkCore) Stats() metrics.View { return metrics.ViewOf(l.m.each) }

// Config returns the link's configuration.
func (l *linkCore) Config() LinkConfig { return l.cfg }

// trace emits one link-layer span event. frame carries the wire bytes
// for packet capture (transmit events only).
func (l *linkCore) trace(t Tracer, at Time, kind, verdict string, data []byte, end bool, frame []byte) {
	t.Emit(TraceEvent{
		At: at, ID: t.ID(data), Len: len(data),
		Node: l.name, Layer: LayerLink, Kind: kind, Verdict: verdict, End: end,
	}, frame)
}

// ingest copies data into a pooled buffer the link owns — the Port.Send
// front half.
func (l *linkCore) ingest(tr Tracer, data []byte) []byte {
	buf := bufpool.Get(len(data))
	copy(buf, data)
	if tr != nil {
		tr.Stamp(buf) // fresh incarnation: the copy starts its own chain
	}
	return buf
}

// drop ends a packet's life: one counter, one terminal trace event, and
// the buffer goes back to the pool.
func (l *linkCore) drop(c *metrics.Counter, verdict string, at Time, tr Tracer, data []byte) {
	c.Inc()
	if tr != nil {
		l.trace(tr, at, "drop", verdict, data, true, nil)
	}
	bufpool.Put(data)
}

// txPlan is one packet's fate as decided by the impairment pipeline,
// in offsets from the send instant; the carriage only has to act on it.
type txPlan struct {
	// ECN carries the (possibly just-set) congestion mark.
	ECN bool
	// Queued reports the packet took a serializer queue slot, to be
	// released Wait (queueing plus transmission time) after the send.
	Queued bool
	Wait   time.Duration
	// Delay is the full send-to-arrival latency: serializer wait plus
	// propagation, jitter and any reordering extra.
	Delay time.Duration
	// Late marks a reorder-delayed packet: a FIFO carriage must deliver
	// it out-of-band so later packets can overtake it.
	Late bool
	// Dup reports a duplicate, DupData its CloneBuf'd bytes, to deliver
	// one microsecond behind the original.
	Dup     bool
	DupData []byte
}

// plan runs the impairment pipeline for one owned buffer sent at now:
// up check, random loss, serialization/queueing/ECN, jitter,
// reordering, in-place corruption, duplication — every draw, counter
// and trace event, in that order, on every backend. On ok the (possibly
// corrupted) buffer remains the caller's to carry; on !ok the packet
// was dropped, the counters and trace already say why, and the buffer
// went back to the pool.
func (l *linkCore) plan(now Time, tr Tracer, data []byte, ecn bool) (p txPlan, ok bool) {
	l.m.Sent.Inc()
	if !l.up {
		l.drop(&l.m.DownDrop, VerdictDownDrop, now, tr, data)
		return p, false
	}
	rng := l.rng
	if chance(rng, l.cfg.LossProb) {
		l.drop(&l.m.Lost, VerdictLost, now, tr, data)
		return p, false
	}

	// Serialization and queueing.
	depart := now
	if l.cfg.RateBps > 0 {
		if l.cfg.QueueLimit > 0 && l.queued >= l.cfg.QueueLimit {
			l.drop(&l.m.QueueDrop, VerdictQueueDrop, now, tr, data)
			return p, false
		}
		if l.cfg.ECNThreshold > 0 && l.queued >= l.cfg.ECNThreshold {
			ecn = true
			l.m.ECNMarked.Inc()
		}
		txTime := Time(int64(len(data)) * 8 * int64(time.Second) / l.cfg.RateBps)
		start := l.txFree
		if start < now {
			start = now
		}
		l.txFree = start + txTime
		depart = l.txFree
		l.setQueued(l.queued + 1)
		p.Queued, p.Wait = true, time.Duration(depart-now)
	}

	extra := Time(0)
	if l.cfg.Jitter > 0 {
		extra += Time(rng.Int63n(l.cfg.Jitter.Nanoseconds()))
	}
	if chance(rng, l.cfg.ReorderProb) {
		l.m.Reordered.Inc()
		span := 4 * l.cfg.Delay.Nanoseconds()
		if span <= 0 {
			span = int64(400 * time.Microsecond)
		}
		extra += Time(1 + rng.Int63n(span))
		p.Late = true
	}
	if chance(rng, l.cfg.CorruptProb) && len(data) > 0 {
		l.m.Corrupted.Inc()
		bit := rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << uint(7-bit%8)
		if tr != nil {
			l.trace(tr, now, "corrupt", "", data, false, nil)
		}
	}

	p.ECN = ecn
	p.Delay = time.Duration(depart-now+extra) + l.cfg.Delay
	if tr != nil {
		// The capture point: these exact bytes (after any in-place
		// corruption) are what travels the wire.
		l.trace(tr, now, "transmit", "", data, false, data)
	}
	if chance(rng, l.cfg.DupProb) {
		l.m.Duplicate.Inc()
		p.Dup, p.DupData = true, CloneBuf(data)
		if tr != nil {
			tr.Stamp(p.DupData)
			l.trace(tr, now, "dup", "", p.DupData, false, p.DupData)
		}
	}
	return p, true
}

func (l *linkCore) setQueued(n int) {
	l.queued = n
	l.m.QueueDepth.Set(int64(n))
}

// arrived runs the delivery half at arrival time: the down check, the
// delivered counters and the deliver trace event. It reports whether
// the buffer should reach the destination handler; on false the packet
// was dropped and the buffer returned to the pool. Only receive-side
// state is touched here — never the serializer or the impairment
// stream, which belong to the sender (on the sharded engine the two
// ends can execute on different shards).
func (l *linkCore) arrived(at Time, tr Tracer, data []byte) bool {
	if !l.up {
		l.drop(&l.m.DownDropRecv, VerdictDownDrop, at, tr, data)
		return false
	}
	l.m.Delivered.Inc()
	l.m.DeliveredBytes.Add(uint64(len(data)))
	if tr != nil {
		l.trace(tr, at, "deliver", "", data, false, nil)
	}
	return true
}

// lane returns the link's lane for a tagged event kind.
func (l *linkCore) lane(kind uint8) *lane {
	if kind == evQueueFree {
		return &l.releases
	}
	return &l.deliveries
}

// deliver runs at arrival time on the destination's core. The *Packet
// points into the event and is only valid for the duration of the
// handler call; the Data buffer, however, is the handler's to keep (or
// Put back to the bufpool).
func (l *linkCore) deliver(p *Packet, at Time, tr Tracer) {
	if l.arrived(at, tr, p.Data) {
		l.dst(p)
	}
}

func chance(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// linkEnv is what a Link needs from the engine: the send-side clock,
// the tracer, and the two event sinks. It is the sending node's view,
// or an xshardEnv when postDeliver must cross into another shard's
// mailbox; postQueueFree always stays local (the serializer is
// send-side state). An oob delivery (reorder-delayed or duplicate)
// skips the link's delivery lane and is filed as an ordinary slot.
type linkEnv interface {
	envNow() Time
	envTracer() Tracer
	postDeliver(l *Link, at Time, data []byte, ecn, oob bool)
	postQueueFree(l *Link, at Time)
}

// Link is the virtual-time carriage: the shared link core plus the
// engine events that carry its plans out. Create with NewLink (or
// LinkOn); delivery invokes the destination handler inside the event
// loop. Link is the engine's Port implementation.
type Link struct {
	linkCore
	env linkEnv
}

// Send transmits data over the link, applying serialization, queueing,
// ECN marking and the configured impairments. The data is copied (into
// a pooled buffer that the receiving end owns).
func (l *Link) Send(data []byte) {
	l.SendOwned(l.ingest(l.env.envTracer(), data), false)
}

// SendOwned transmits data, transferring ownership of the buffer to
// the link: the caller must not touch data afterwards. The link either
// carries the buffer through to the destination handler (which then
// owns it) or returns it to the bufpool on a drop. Impairments mutate
// the buffer in place — there is no per-hop copy. On the sharded
// engine a cross-shard delivery hands the buffer off through the
// window mailbox; the receiving shard is the next owner and the sender
// never touches it again.
func (l *Link) SendOwned(data []byte, ecn bool) {
	now := l.env.envNow()
	p, ok := l.plan(now, l.env.envTracer(), data, ecn)
	if !ok {
		return
	}
	// Post order is part of the event key: queue-free, deliver, dup.
	// A late packet or a duplicate would hold the delivery lane's tail
	// back and turn the packets behind it away from the lane.
	if p.Queued {
		l.env.postQueueFree(l, now+durTicks(p.Wait))
	}
	arrive := now + durTicks(p.Delay)
	l.env.postDeliver(l, arrive, data, p.ECN, p.Late)
	if p.Dup {
		l.env.postDeliver(l, arrive+durTicks(time.Microsecond), p.DupData, p.ECN, true)
	}
}

// Duplex bundles the two directions of a point-to-point link on any
// backend.
type Duplex struct {
	AB Port // a → b
	BA Port // b → a
}

// SetUp raises or cuts both directions.
func (d *Duplex) SetUp(up bool) {
	d.AB.SetUp(up)
	d.BA.SetUp(up)
}
