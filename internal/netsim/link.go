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

// Clone deep-copies a packet so impairments (corruption, duplication)
// never alias caller memory. The copy goes through CloneBuf — the
// Backend contract's single duplication path — so the clone's Data is
// a pooled buffer the caller owns.
func (p *Packet) Clone() *Packet {
	return &Packet{Data: CloneBuf(p.Data), ECN: p.ECN}
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

// Bind registers every counter into sc (typically "netsim/link<n>").
func (m *LinkMetrics) Bind(sc *metrics.Scope) {
	sc.Register("sent", &m.Sent)
	sc.Register("delivered", &m.Delivered)
	sc.Register("delivered_bytes", &m.DeliveredBytes)
	sc.Register("lost", &m.Lost)
	sc.Register("duplicate", &m.Duplicate)
	sc.Register("reordered", &m.Reordered)
	sc.Register("corrupted", &m.Corrupted)
	sc.Register("queue_drop", &m.QueueDrop)
	sc.Register("down_drop", metrics.CounterSum{&m.DownDrop, &m.DownDropRecv})
	sc.Register("ecn_marked", &m.ECNMarked)
	sc.Register("queue_depth", &m.QueueDepth)
}

// View snapshots the counters under their registry names.
func (m *LinkMetrics) View() metrics.View {
	return metrics.View{
		"sent":            m.Sent.Value(),
		"delivered":       m.Delivered.Value(),
		"delivered_bytes": m.DeliveredBytes.Value(),
		"lost":            m.Lost.Value(),
		"duplicate":       m.Duplicate.Value(),
		"reordered":       m.Reordered.Value(),
		"corrupted":       m.Corrupted.Value(),
		"queue_drop":      m.QueueDrop.Value(),
		"down_drop":       m.DownDrop.Value() + m.DownDropRecv.Value(),
		"ecn_marked":      m.ECNMarked.Value(),
	}
}

// linkName renders the creation-order link identity every backend
// shares: "link0", "link1", ...
func linkName(n int) string { return fmt.Sprintf("link%d", n) }

// linkEnv is what a Link needs from its substrate: the send-side
// clock, the tracer, and the two event sinks. On the sequential
// Simulator all of it is the one event heap; on the sharded engine the
// env is the sending node's view, and postDeliver may cross into
// another shard's mailbox while postQueueFree always stays local (the
// serializer is send-side state).
type linkEnv interface {
	envNow() Time
	envTracer() Tracer
	postDeliver(l *Link, at Time, data []byte, ecn bool)
	postQueueFree(l *Link, at Time)
}

func (s *Simulator) envNow() Time      { return s.now }
func (s *Simulator) envTracer() Tracer { return s.tracer }

func (s *Simulator) postDeliver(l *Link, at Time, data []byte, ecn bool) {
	e := s.post(at)
	e.kind = evDeliver
	e.lnk = l
	e.pkt = Packet{Data: data, ECN: ecn}
}

func (s *Simulator) postQueueFree(l *Link, at Time) {
	e := s.post(at)
	e.kind = evQueueFree
	e.lnk = l
}

// Link is a unidirectional impaired channel on the simulator. Create
// with Simulator.NewLink; send with Send. Delivery invokes the
// destination handler inside the event loop. Link is the simulator's
// Port implementation.
type Link struct {
	env  linkEnv
	cfg  LinkConfig
	dst  Handler
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
	// Up gates delivery: a downed link drops traffic, counting it as
	// down_drop (used by routing failure experiments and fault
	// injection).
	up bool
}

// NewLink creates a unidirectional link delivering to dst. When the
// simulator carries a registry, the link's counters register under
// "netsim/link<n>/..." in creation order.
func (s *Simulator) NewLink(cfg LinkConfig, dst Handler) Port {
	if dst == nil {
		panic("netsim: NewLink with nil destination")
	}
	l := &Link{env: s, cfg: cfg, dst: dst, up: true,
		name: linkName(s.linkSeq),
		rng:  rand.New(rand.NewSource(linkSeed(s.seed, s.linkSeq)))}
	if s.msc != nil {
		l.m.Bind(s.msc.Sub(l.name))
	}
	s.linkSeq++
	return l
}

// Name returns the link's creation-order identity ("link0", "link1",
// ...), matching its metrics scope and its trace/pcap interface name.
func (l *Link) Name() string { return l.name }

// trace emits one link-layer span event when tracing is on. frame
// carries the wire bytes for packet capture (transmit events only).
func (l *Link) trace(t Tracer, at Time, kind, verdict string, data []byte, end bool, frame []byte) {
	t.Emit(TraceEvent{
		At: at, ID: t.ID(data), Len: len(data),
		Node: l.name, Layer: LayerLink, Kind: kind, Verdict: verdict, End: end,
	}, frame)
}

// SetUp raises or cuts the link. Packets sent (or already in flight)
// while down are counted as down_drop, distinct from random loss.
func (l *Link) SetUp(up bool) { l.up = up }

// Up reports whether the link is passing traffic.
func (l *Link) Up() bool { return l.up }

// SetLossProb replaces the link's random-loss probability at runtime.
// Fault injectors use this to overlay time-varying loss models (e.g.
// Gilbert–Elliott bursty loss) on top of a static configuration.
func (l *Link) SetLossProb(p float64) { l.cfg.LossProb = p }

// SetReorderProb replaces the link's reordering probability at
// runtime. Fault injectors use this to open bounded reordering windows
// (faults.Reorder) and restore the configured value afterwards.
func (l *Link) SetReorderProb(p float64) { l.cfg.ReorderProb = p }

// SetDupProb replaces the link's duplication probability at runtime.
func (l *Link) SetDupProb(p float64) { l.cfg.DupProb = p }

// Stats returns a view of the link counters (keys: sent, delivered,
// delivered_bytes, lost, duplicate, reordered, corrupted, queue_drop,
// down_drop, ecn_marked).
func (l *Link) Stats() metrics.View { return l.m.View() }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Send transmits data over the link, applying serialization, queueing,
// ECN marking and the configured impairments. The data is copied (into
// a pooled buffer that the receiving end owns).
func (l *Link) Send(data []byte) {
	buf := bufpool.Get(len(data))
	copy(buf, data)
	if t := l.env.envTracer(); t != nil {
		t.Stamp(buf) // fresh incarnation: the copy starts its own chain
	}
	l.SendOwned(buf, false)
}

// SendPacket is Send for a packet that may already carry an ECN mark.
// It takes ownership of pkt.Data (see SendOwned); the Packet struct
// itself is not retained.
func (l *Link) SendPacket(pkt *Packet) {
	l.SendOwned(pkt.Data, pkt.ECN)
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
	tr := l.env.envTracer()
	now := l.env.envNow()
	l.m.Sent.Inc()
	if !l.up {
		l.m.DownDrop.Inc()
		if tr != nil {
			l.trace(tr, now, "drop", VerdictDownDrop, data, true, nil)
		}
		bufpool.Put(data)
		return
	}
	rng := l.rng
	if chance(rng, l.cfg.LossProb) {
		l.m.Lost.Inc()
		if tr != nil {
			l.trace(tr, now, "drop", VerdictLost, data, true, nil)
		}
		bufpool.Put(data)
		return
	}

	// Serialization and queueing.
	depart := now
	if l.cfg.RateBps > 0 {
		if l.cfg.QueueLimit > 0 && l.queued >= l.cfg.QueueLimit {
			l.m.QueueDrop.Inc()
			if tr != nil {
				l.trace(tr, now, "drop", VerdictQueueDrop, data, true, nil)
			}
			bufpool.Put(data)
			return
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
		l.env.postQueueFree(l, depart)
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
	}
	if chance(rng, l.cfg.CorruptProb) && len(data) > 0 {
		l.m.Corrupted.Inc()
		bit := rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << uint(7-bit%8)
		if tr != nil {
			l.trace(tr, now, "corrupt", "", data, false, nil)
		}
	}

	arrive := depart + durTicks(l.cfg.Delay) + extra
	if tr != nil {
		// The capture point: these exact bytes (after any in-place
		// corruption) are what travels the wire.
		l.trace(tr, now, "transmit", "", data, false, data)
	}
	l.env.postDeliver(l, arrive, data, ecn)
	if chance(rng, l.cfg.DupProb) {
		l.m.Duplicate.Inc()
		dup := CloneBuf(data)
		if tr != nil {
			t := tr
			t.Stamp(dup)
			l.trace(t, now, "dup", "", dup, false, dup)
		}
		l.env.postDeliver(l, arrive+durTicks(time.Microsecond), dup, ecn)
	}
}

func (l *Link) setQueued(n int) {
	l.queued = n
	l.m.QueueDepth.Set(int64(n))
}

// deliver runs at arrival time on the destination's shard. The *Packet
// points into the event and is only valid for the duration of the
// handler call; the Data buffer, however, is the handler's to keep (or
// Put back to the bufpool). Only receive-side state (Delivered,
// DownDropRecv, the destination handler) is touched here — never the
// serializer or the impairment stream, which belong to the sender.
func (l *Link) deliver(p *Packet, at Time, tr Tracer) {
	if !l.up {
		l.m.DownDropRecv.Inc()
		if tr != nil {
			l.trace(tr, at, "drop", VerdictDownDrop, p.Data, true, nil)
		}
		bufpool.Put(p.Data)
		return
	}
	l.m.Delivered.Inc()
	l.m.DeliveredBytes.Add(uint64(len(p.Data)))
	if tr != nil {
		l.trace(tr, at, "deliver", "", p.Data, false, nil)
	}
	l.dst(p)
}

func chance(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// Duplex bundles the two directions of a point-to-point link on any
// backend.
type Duplex struct {
	AB Port // a → b
	BA Port // b → a
}

// NewDuplex builds a symmetric bidirectional link with the same config
// in each direction, delivering to the two handlers.
//
// Prefer the backend-agnostic NewDuplexOn, which works on every
// Backend; this method remains for direct simulator wiring.
func (s *Simulator) NewDuplex(cfg LinkConfig, toA, toB Handler) *Duplex {
	return NewDuplexOn(s, cfg, toA, toB)
}

// SetUp raises or cuts both directions.
func (d *Duplex) SetUp(up bool) {
	d.AB.SetUp(up)
	d.BA.SetUp(up)
}
