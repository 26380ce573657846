package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
)

// DefaultPort is the overlay listen port on every member.
const DefaultPort = 700

// ErrDeadline is the terminal error of a Call whose overall deadline
// elapsed before any response arrived.
var ErrDeadline = errors.New("overlay: call deadline exceeded")

// Handler serves one message kind: it receives the sender's address
// and the request payload and returns the response payload. For casts
// the return value is discarded. Handlers run inside connection
// callbacks — backend lock held, node state free to touch, no blocking.
type Handler func(from network.Addr, payload []byte) []byte

// NodeConfig tunes one overlay node.
type NodeConfig struct {
	// Seed derives the node-local RNG (retry jitter, gossip peer
	// choice). Node code never draws from the backend's shared RNG, so
	// shard placement cannot perturb a decision; the cluster passes its
	// seed and each node mixes in its own address.
	Seed int64
	// Metrics, when non-nil, adopts the node's instruments (a nil
	// scope costs nothing).
	Metrics *metrics.Scope
}

// The request/response core's retry policy: a call is sent up to
// maxAttempts times, first try included. Each attempt waits
// attemptTimeout for a reply; the next is sent after retryBackoff,
// doubled per attempt, plus jitter in [0, backoff/2] drawn from the
// node RNG.
const (
	attemptTimeout = 250 * time.Millisecond
	maxAttempts    = 3
	retryBackoff   = 50 * time.Millisecond
)

// Node is the shared runtime of every overlay tier: message framing
// over transport.Conn, dial-on-demand connection management, and the
// request/response core with deadlines, retries and duplicate
// suppression. All state is touched only from the node's own backend
// events (its timers, its connections' callbacks) or from driver code
// holding the backend lock — the single-writer rule that keeps a
// sharded cluster race-free with no node-level locking.
type Node struct {
	B     netsim.Backend
	addr  network.Addr
	stack transport.Stack
	rng   *rand.Rand

	handlers map[MsgKind]Handler
	peers    map[network.Addr]*peer // outbound, dial-on-demand
	inbound  []*peer
	calls    map[uint64]*call
	nextReq  uint64

	// Instruments (adopted by cfg.Metrics when set).
	framesOut, framesIn   metrics.Counter
	bytesOut, bytesIn     metrics.Counter
	callsTotal, callsOK   metrics.Counter
	deadlineMiss          metrics.Counter
	retries, dupReplies   metrics.Counter
	casts, unhandled      metrics.Counter
	dials, dialErrs       metrics.Counter
	accepts, connDrops    metrics.Counter
	codecErrs, outDropped metrics.Counter
}

// NewNode attaches an overlay node to a transport stack. The stack's
// backend b must be the node's own (its shard view on a sharded
// engine). Call under the backend lock.
func NewNode(b netsim.Backend, addr network.Addr, stack transport.Stack, cfg NodeConfig) (*Node, error) {
	n := &Node{
		B: b, addr: addr, stack: stack,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ (int64(addr)+1)*0x7F4A7C159E3779B9)),
		handlers: make(map[MsgKind]Handler),
		peers:    make(map[network.Addr]*peer),
		calls:    make(map[uint64]*call),
	}
	n.bindMetrics(cfg.Metrics)
	if err := stack.Listen(DefaultPort, n.accept); err != nil {
		return nil, fmt.Errorf("overlay: node %d listen: %w", addr, err)
	}
	return n, nil
}

func (n *Node) bindMetrics(sc *metrics.Scope) {
	sc.Register("frames_out", &n.framesOut)
	sc.Register("frames_in", &n.framesIn)
	sc.Register("bytes_out", &n.bytesOut)
	sc.Register("bytes_in", &n.bytesIn)
	sc.Register("calls", &n.callsTotal)
	sc.Register("calls_ok", &n.callsOK)
	sc.Register("deadline_miss", &n.deadlineMiss)
	sc.Register("retries", &n.retries)
	sc.Register("dup_replies", &n.dupReplies)
	sc.Register("casts", &n.casts)
	sc.Register("unhandled", &n.unhandled)
	sc.Register("dials", &n.dials)
	sc.Register("dial_errors", &n.dialErrs)
	sc.Register("accepts", &n.accepts)
	sc.Register("conn_drops", &n.connDrops)
	sc.Register("codec_errors", &n.codecErrs)
	sc.Register("out_dropped", &n.outDropped)
}

// Addr returns the node's network address.
func (n *Node) Addr() network.Addr { return n.addr }

// Rand is the node-local deterministic RNG tiers draw from.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Handle registers the handler for one message kind.
func (n *Node) Handle(kind MsgKind, h Handler) { n.handlers[kind] = h }

// MsgStats exposes the frame counters tiers report messages/op from.
func (n *Node) MsgStats() (framesOut, framesIn uint64) {
	return n.framesOut.Value(), n.framesIn.Value()
}

// CallStats exposes the RPC outcome counters.
func (n *Node) CallStats() (calls, ok, miss, retries, dups uint64) {
	return n.callsTotal.Value(), n.callsOK.Value(), n.deadlineMiss.Value(),
		n.retries.Value(), n.dupReplies.Value()
}

// --- connection management ---

// peer is one transport.Conn wrapped with frame buffers. Outbound
// peers are keyed by address in n.peers; inbound peers answer on the
// connection the request arrived on.
type peer struct {
	addr network.Addr // remote member (0 on inbound until a frame names it)
	conn transport.Conn
	out  []byte // encoded frames not yet accepted by Write
	rbuf []byte // partial inbound frame
	up   bool   // outbound: connected; inbound: always
	dead bool
}

// maxQueued bounds a peer's pending output; a peer that falls further
// behind (a partitioned member) starts shedding frames — the retry
// machinery resends what mattered once the path heals.
const maxQueued = 256 * 1024

func (n *Node) accept(c transport.Conn) {
	n.accepts.Inc()
	p := &peer{conn: c, up: true}
	n.inbound = append(n.inbound, p)
	c.Callbacks(nil,
		func() { n.readable(p) },
		func() { n.flush(p) },
		func(err error) { n.dropPeer(p, err) })
}

// outPeer returns the live outbound peer for addr, dialling if needed.
func (n *Node) outPeer(addr network.Addr) *peer {
	if p := n.peers[addr]; p != nil && !p.dead {
		return p
	}
	n.dials.Inc()
	c, err := n.stack.Dial(addr, DefaultPort)
	if err != nil {
		n.dialErrs.Inc()
		return nil
	}
	p := &peer{addr: addr, conn: c}
	n.peers[addr] = p
	c.Callbacks(
		func() { p.up = true; n.flush(p) },
		func() { n.readable(p) },
		func() { n.flush(p) },
		func(err error) { n.dropPeer(p, err) })
	return p
}

func (n *Node) dropPeer(p *peer, err error) {
	if p.dead {
		return
	}
	p.dead = true
	p.out = nil
	if err != nil {
		n.connDrops.Inc()
	}
	if p.addr != 0 && n.peers[p.addr] == p {
		delete(n.peers, p.addr)
	}
}

// send frames one message to addr, dialling on demand. Loss here (no
// route, dead peer, shed queue) is not an error: request/response
// callers recover through the retry machinery, casts are best-effort
// by design.
func (n *Node) send(to network.Addr, class uint8, kind MsgKind, reqID uint64, payload []byte) {
	p := n.outPeer(to)
	if p == nil {
		return
	}
	n.sendOn(p, class, kind, reqID, payload)
}

// sendOn frames one message onto an existing peer connection.
func (n *Node) sendOn(p *peer, class uint8, kind MsgKind, reqID uint64, payload []byte) {
	if p.dead || len(p.out) > maxQueued {
		n.outDropped.Inc()
		return
	}
	n.framesOut.Inc()
	n.bytesOut.Add(uint64(headerLen + len(payload)))
	p.out = appendFrame(p.out, class, kind, reqID, n.addr, payload)
	n.flush(p)
}

func (n *Node) flush(p *peer) {
	if !p.up || p.dead {
		return
	}
	for len(p.out) > 0 {
		w := p.conn.Write(p.out)
		if w == 0 {
			return
		}
		p.out = p.out[w:]
	}
	p.out = nil
}

func (n *Node) readable(p *peer) {
	if p.dead {
		return
	}
	p.rbuf = append(p.rbuf, p.conn.ReadAll()...)
	for {
		f, used, err := parseFrame(p.rbuf)
		if err != nil {
			// The stream cannot be resynchronized after a codec error:
			// count it and abandon the connection.
			n.codecErrs.Inc()
			n.dropPeer(p, err)
			p.conn.Close()
			return
		}
		if used == 0 {
			return
		}
		p.rbuf = p.rbuf[used:]
		if p.addr == 0 {
			p.addr = f.from
		}
		n.dispatch(p, f)
	}
}

func (n *Node) dispatch(p *peer, f frame) {
	n.framesIn.Inc()
	n.bytesIn.Add(uint64(headerLen + len(f.payload)))
	switch f.class {
	case classResponse:
		c := n.calls[f.reqID]
		if c == nil || c.done {
			// A late or repeated reply: the attempt it answers was
			// already resolved by an earlier reply, a retry, or the
			// deadline. Suppressed, counted, never delivered twice.
			n.dupReplies.Inc()
			return
		}
		n.complete(c, f.payload)
	case classRequest:
		h := n.handlers[f.kind]
		if h == nil {
			n.unhandled.Inc()
			return
		}
		resp := h(f.from, f.payload)
		n.sendOn(p, classResponse, f.kind, f.reqID, resp)
	case classCast:
		h := n.handlers[f.kind]
		if h == nil {
			n.unhandled.Inc()
			return
		}
		h(f.from, f.payload)
	default:
		n.codecErrs.Inc()
	}
}

// --- request/response core ---

// call is one logical request: one reqID across every retry, so any
// response — including a late one racing a retransmission — resolves
// it exactly once.
type call struct {
	id        uint64
	to        network.Addr
	kind      MsgKind
	payload   []byte
	cb        func([]byte, error)
	attempts  int
	done      bool
	attemptT  netsim.Timer
	deadlineT netsim.Timer
}

// Cast sends a one-way message (no response, no retries).
func (n *Node) Cast(to network.Addr, kind MsgKind, payload []byte) {
	n.casts.Inc()
	n.send(to, classCast, kind, 0, payload)
}

// Call issues a request to the member at addr and invokes cb exactly
// once: with the response payload, or with ErrDeadline once the
// overall deadline elapses. Attempts are re-sent on a per-attempt
// timeout with exponentially backed-off, jittered delays (bounded by
// maxAttempts); a response to ANY attempt completes the call, and
// later replies are suppressed and counted. Call must run inside a
// backend event or under the backend lock.
func (n *Node) Call(to network.Addr, kind MsgKind, payload []byte, deadline time.Duration, cb func([]byte, error)) {
	n.callsTotal.Inc()
	n.nextReq++
	c := &call{id: n.nextReq, to: to, kind: kind, payload: payload, cb: cb}
	n.calls[c.id] = c
	c.deadlineT = n.B.ScheduleTimer(deadline, func() { n.miss(c) })
	n.attempt(c)
}

func (n *Node) attempt(c *call) {
	if c.done {
		return
	}
	c.attempts++
	n.send(c.to, classRequest, c.kind, c.id, c.payload)
	if c.attempts >= maxAttempts {
		// Out of retries: the call now rides on the deadline timer
		// alone — a straggling reply can still complete it.
		return
	}
	c.attemptT = n.B.ScheduleTimer(attemptTimeout, func() { n.attemptTimeout(c) })
}

func (n *Node) attemptTimeout(c *call) {
	if c.done {
		return
	}
	n.retries.Inc()
	backoff := retryBackoff << (c.attempts - 1)
	backoff += time.Duration(n.rng.Int63n(int64(backoff/2) + 1))
	c.attemptT = n.B.ScheduleTimer(backoff, func() { n.attempt(c) })
}

func (n *Node) complete(c *call, resp []byte) {
	c.done = true
	delete(n.calls, c.id)
	c.attemptT.Stop()
	c.deadlineT.Stop()
	n.callsOK.Inc()
	c.cb(resp, nil)
}

func (n *Node) miss(c *call) {
	if c.done {
		return
	}
	c.done = true
	delete(n.calls, c.id)
	c.attemptT.Stop()
	n.deadlineMiss.Inc()
	c.cb(nil, ErrDeadline)
}
