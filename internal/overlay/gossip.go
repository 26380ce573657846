package overlay

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
)

// GossipConfig tunes one gossip member.
type GossipConfig struct {
	// Metrics, when non-nil, adopts the gossip instruments.
	Metrics *metrics.Scope
}

// Dissemination parameters: each push round targets fanout random
// peers; a rumor stays hot for rumorTTL push rounds after it arrives
// (anti-entropy repairs whatever push misses, so the TTL trades
// duplicate traffic for latency); hot rumors are pushed every
// pushInterval, digests exchanged every antiEntropyInterval, and one
// digest exchange is bounded by gossipCallDeadline.
const (
	fanout              = 3
	rumorTTL            = 3
	pushInterval        = 100 * time.Millisecond
	antiEntropyInterval = 500 * time.Millisecond
	gossipCallDeadline  = time.Second
)

// rumorKey packs (origin, seq) into the map key; rumors are totally
// ordered by it, which keeps every iteration deterministic.
func rumorKey(origin network.Addr, seq uint32) uint64 {
	return uint64(origin)<<32 | uint64(seq)
}

// Rumor is one gossip payload with its local arrival stamp — the raw
// material of convergence measurement (docs/OVERLAYS.md).
type Rumor struct {
	Origin  network.Addr
	Seq     uint32
	Body    []byte
	Arrived netsim.Time
	ttl     int
}

// Gossip is an epidemic pub-sub member: new rumors are pushed to
// fanout random peers for rumorTTL rounds (fast, redundant, lossy), and a
// periodic anti-entropy exchange — send a per-origin version digest,
// receive the rumors the digest proves missing — repairs whatever push
// lost, so dissemination converges even across healed partitions.
// Peer choice draws from the node-local RNG only.
type Gossip struct {
	n       *Node
	members []network.Addr // static membership minus self, sorted
	rumors  map[uint64]*Rumor
	keys    []uint64 // sorted; deterministic digest/delta iteration
	hot     []uint64
	mySeq   uint32
	pushR   *netsim.Repeater
	aeR     *netsim.Repeater

	published, accepted metrics.Counter
	duplicates, pushes  metrics.Counter
	digests, repaired   metrics.Counter
}

// NewGossip attaches a gossip member to a node runtime. members is the
// full static membership (self included is fine); push and
// anti-entropy timers start immediately. Call under the backend lock.
func NewGossip(n *Node, members []network.Addr, cfg GossipConfig) *Gossip {
	g := &Gossip{n: n, rumors: make(map[uint64]*Rumor)}
	for _, m := range members {
		if m != n.Addr() {
			g.members = append(g.members, m)
		}
	}
	sort.Slice(g.members, func(i, j int) bool { return g.members[i] < g.members[j] })
	sc := cfg.Metrics
	sc.Register("published", &g.published)
	sc.Register("accepted", &g.accepted)
	sc.Register("duplicates", &g.duplicates)
	sc.Register("pushes", &g.pushes)
	sc.Register("digests", &g.digests)
	sc.Register("repaired", &g.repaired)
	n.Handle(KindRumor, g.serveRumor)
	n.Handle(KindDigest, g.serveDigest)
	g.pushR = n.B.Every(pushInterval, g.pushRound)
	g.aeR = n.B.Every(antiEntropyInterval, g.antiEntropyRound)
	return g
}

// Stop cancels the member's timers (the conns die with the backend).
func (g *Gossip) Stop() {
	g.pushR.Stop()
	g.aeR.Stop()
}

// Publish originates a rumor and pushes it immediately; the sequence
// number is per-origin monotone, which is what makes digests compact.
func (g *Gossip) Publish(body []byte) (seq uint32) {
	g.mySeq++
	g.published.Inc()
	g.insert(&Rumor{Origin: g.n.Addr(), Seq: g.mySeq, Body: body,
		Arrived: g.n.B.Now(), ttl: rumorTTL})
	g.pushRound()
	return g.mySeq
}

// Have reports whether the rumor (origin, seq) arrived, and when.
func (g *Gossip) Have(origin network.Addr, seq uint32) (netsim.Time, bool) {
	if r, ok := g.rumors[rumorKey(origin, seq)]; ok {
		return r.Arrived, true
	}
	return 0, false
}

// Count reports how many distinct rumors the member holds.
func (g *Gossip) Count() int { return len(g.rumors) }

func (g *Gossip) insert(r *Rumor) {
	k := rumorKey(r.Origin, r.Seq)
	g.rumors[k] = r
	i := sort.Search(len(g.keys), func(i int) bool { return g.keys[i] >= k })
	g.keys = append(g.keys, 0)
	copy(g.keys[i+1:], g.keys[i:])
	g.keys[i] = k
	if r.ttl > 0 {
		g.hot = append(g.hot, k)
	}
}

// accept folds a received rumor in, returning false on duplicates.
func (g *Gossip) accept(origin network.Addr, seq uint32, ttl int, body []byte) bool {
	if _, dup := g.rumors[rumorKey(origin, seq)]; dup {
		g.duplicates.Inc()
		return false
	}
	g.accepted.Inc()
	g.insert(&Rumor{Origin: origin, Seq: seq, Body: append([]byte(nil), body...),
		Arrived: g.n.B.Now(), ttl: ttl})
	return true
}

// --- push path ---

// pushRound forwards every hot rumor to fanout random peers and ages
// it; rumors fall cold at ttl 0 and anti-entropy takes over.
func (g *Gossip) pushRound() {
	if len(g.hot) == 0 || len(g.members) == 0 {
		return
	}
	hot := g.hot
	g.hot = g.hot[:0]
	for _, k := range hot {
		r := g.rumors[k]
		if r == nil || r.ttl <= 0 {
			continue
		}
		r.ttl--
		payload := encodeRumor(nil, r)
		for _, i := range g.n.Rand().Perm(len(g.members))[:min(fanout, len(g.members))] {
			g.pushes.Inc()
			g.n.Cast(g.members[i], KindRumor, payload)
		}
		if r.ttl > 0 {
			g.hot = append(g.hot, k)
		}
	}
}

func encodeRumor(b []byte, r *Rumor) []byte {
	var hdr [9]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(r.Origin))
	binary.BigEndian.PutUint32(hdr[4:], r.Seq)
	hdr[8] = byte(r.ttl)
	return appendBytes(append(b, hdr[:]...), r.Body)
}

func decodeRumor(b []byte) (origin network.Addr, seq uint32, ttl int, body, rest []byte, ok bool) {
	if len(b) < 9 {
		return 0, 0, 0, nil, nil, false
	}
	origin = network.Addr(binary.BigEndian.Uint32(b))
	seq = binary.BigEndian.Uint32(b[4:])
	ttl = int(b[8])
	body, rest, ok = readBytes(b[9:])
	return origin, seq, ttl, body, rest, ok
}

func (g *Gossip) serveRumor(_ network.Addr, payload []byte) []byte {
	origin, seq, ttl, body, _, ok := decodeRumor(payload)
	if !ok {
		return nil
	}
	// Forward with a decayed ttl so a rumor's total fan-in stays
	// bounded; accept ignores ttl for rumors already seen.
	if ttl > 0 {
		ttl--
	}
	g.accept(origin, seq, ttl, body)
	return nil
}

// --- anti-entropy path ---

// digest summarizes holdings per origin as (maxSeq, count). count <
// maxSeq tells the responder the digester has holes below the
// watermark and everything for that origin should be resent, not just
// seq > maxSeq — that closes the reordered-loss gap in one exchange.
func (g *Gossip) digest() []byte {
	type span struct {
		max, count uint32
	}
	spans := make(map[network.Addr]*span)
	var origins []network.Addr
	for _, k := range g.keys {
		origin := network.Addr(k >> 32)
		seq := uint32(k)
		s := spans[origin]
		if s == nil {
			s = &span{}
			spans[origin] = s
			origins = append(origins, origin)
		}
		s.count++
		if seq > s.max {
			s.max = seq
		}
	}
	b := appendUint16(nil, uint16(len(origins)))
	for _, o := range origins { // g.keys is sorted, so origins is too
		var rec [12]byte
		binary.BigEndian.PutUint32(rec[0:], uint32(o))
		binary.BigEndian.PutUint32(rec[4:], spans[o].max)
		binary.BigEndian.PutUint32(rec[8:], spans[o].count)
		b = append(b, rec[:]...)
	}
	return b
}

// deltaCap bounds one anti-entropy response; a big backlog drains over
// successive rounds instead of blowing the frame size limit.
const deltaCap = 128

// serveDigest answers with every rumor the digest proves the sender
// lacks.
func (g *Gossip) serveDigest(_ network.Addr, payload []byte) []byte {
	g.digests.Inc()
	n, rest, ok := readUint16(payload)
	if !ok || len(rest) < 12*int(n) {
		return appendUint16(nil, 0)
	}
	max := make(map[network.Addr]uint32, n)
	holes := make(map[network.Addr]bool, n)
	for i := 0; i < int(n); i++ {
		o := network.Addr(binary.BigEndian.Uint32(rest[12*i:]))
		m := binary.BigEndian.Uint32(rest[12*i+4:])
		c := binary.BigEndian.Uint32(rest[12*i+8:])
		max[o] = m
		holes[o] = c < m
	}
	var out []byte
	count := 0
	for _, k := range g.keys {
		if count >= deltaCap {
			break
		}
		origin, seq := network.Addr(k>>32), uint32(k)
		m, known := max[origin]
		if known && seq <= m && !holes[origin] {
			continue
		}
		out = encodeRumor(out, g.rumors[k])
		count++
	}
	return append(appendUint16(nil, uint16(count)), out...)
}

// antiEntropyRound sends the digest to one random peer and folds the
// returned delta in.
func (g *Gossip) antiEntropyRound() {
	if len(g.members) == 0 {
		return
	}
	peer := g.members[g.n.Rand().Intn(len(g.members))]
	g.n.Call(peer, KindDigest, g.digest(), gossipCallDeadline, func(resp []byte, err error) {
		if err != nil {
			return
		}
		n, rest, ok := readUint16(resp)
		if !ok {
			return
		}
		for i := 0; i < int(n); i++ {
			origin, seq, ttl, body, r, ok := decodeRumor(rest)
			if !ok {
				return
			}
			rest = r
			if g.accept(origin, seq, ttl, body) {
				g.repaired.Inc()
			}
		}
	})
}
