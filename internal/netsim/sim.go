// Package netsim is a deterministic discrete-event network simulator.
//
// Every protocol in this repository — data link, routing, transport —
// runs over netsim rather than a real network. All time is virtual and
// all randomness flows from seeded sources, so every experiment in
// EXPERIMENTS.md is an exact function of its seed: loss patterns,
// reordering, corruption and timer interleavings replay identically.
//
// The model is intentionally small: one engine (Sharded, sharded.go)
// owns a virtual clock and one event store per shard (evCore, below: a
// 4-ary heap of value slots ordered by one total key, with lazy
// cancellation and a freelist, plus one FIFO lane per link direction
// whose head alone sits in the heap), run in parallel under
// conservative lookahead windows while producing byte-identical results
// at any shard count; a Simulator is the one-shard, one-view case of it
// with a step-by-step driver surface; the wall-clock backends' RTClock
// runs the same store against real deadlines; a Link is a
// unidirectional channel with configurable propagation delay, jitter,
// serialization rate, queue limit, loss, duplication, reordering, bit
// corruption and ECN marking; a Bus is a shared broadcast medium with
// collisions for the MAC sublayer experiments.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Duration converts a standard library duration to simulator ticks.
func durTicks(d time.Duration) Time { return Time(d.Nanoseconds()) }

// String formats the time as a duration for traces.
func (t Time) String() string { return time.Duration(t).String() }

// Event kinds. The hot link paths (packet delivery, serializer queue
// release) are tagged events carrying their operands in the event
// itself instead of a fresh closure per packet, so a recycled event is
// the only per-hop scheduling cost.
const (
	evFunc      uint8 = iota // run fn
	evDeliver                // deliver pkt on lnk
	evQueueFree              // release one serializer queue slot on lnk
	evWire                   // hand pkt to lnk's wire (a socket carriage)
)

// key is the canonical ordering key (at, schedAt, rank, seq) —
// execution time, then scheduling time, then the scheduler's identity
// rank, then the scheduler's local sequence number. A Simulator
// schedules everything through its one rank-0 view, which makes the
// key order-equivalent to a plain (at, seq) FIFO tiebreak — schedAt is
// nondecreasing in seq because schedules happen in time-ordered
// execution. A sharded world gives each node view a stable rank, so the
// same key decides the same order regardless of how shards interleave;
// this is the deterministic merge rule. Keys are unique ((rank, seq)
// names one schedule call), so the order is total and the pop sequence
// is the sorted sequence whatever shape the store has.
type key struct {
	at      Time
	schedAt Time   // virtual time the schedule call was made
	seq     uint64 // scheduler-local FIFO tiebreak for simultaneous events
	rank    int32  // scheduler identity: the posting view's rank
}

// before reports whether k orders before the (at, schedAt, rank, seq)
// key — the single comparison the heap, the lanes and the sharded
// window bounds share.
func (k *key) before(at, schedAt Time, rank int32, seq uint64) bool {
	if k.at != at {
		return k.at < at
	}
	if k.schedAt != schedAt {
		return k.schedAt < schedAt
	}
	if k.rank != rank {
		return k.rank < rank
	}
	return k.seq < seq
}

func (k *key) less(o *key) bool { return k.before(o.at, o.schedAt, o.rank, o.seq) }

// slot is one heap entry: a key held by value next to the event it
// orders.
type slot struct {
	key
	ev *event
}

func (s *slot) less(o *slot) bool { return s.key.less(&o.key) }

// event is what a slot orders: the callback or tagged link operation,
// and the cancellation state a Timer reaches through its pointer. It
// carries no heap position: sifting compares and moves slots only, and
// cancellation never needs to find the slot (see Timer.Stop).
type event struct {
	gen   uint32 // bumped on recycle; detached Timers compare it
	kind  uint8
	dead  bool
	laned bool // joined lnk's lane for kind (see lane)
	fn    func()
	lnk   *linkCore
	pkt   Packet
	core  *evCore // owner, so Timer.Stop can account the cancellation
	// While the event waits in a lane behind the lane's head, k is the
	// key its heap slot will get and next the member behind it.
	k    key
	next *event
}

// lane is one link direction's FIFO of one tagged event kind on one
// core: a Link's deliveries on the receiving core, its serializer
// releases on the sending one. A jitter-free link posts both in key
// order, so only the lane's head needs to sit in the heap: its
// successors wait behind it, in key order, threaded through their own
// events — a lane owns no storage, so it never allocates. Posting behind
// the head is an append, and popping the head puts its successor in the
// root's place with one siftDown — no shrink, no regrow.
//
// The append rule keeps the order exact: a slot joins a busy lane only
// if its key orders after the lane's tail, and anything else (jitter,
// a reorder-delayed or duplicated delivery) is an ordinary heap slot.
// Every lane slot therefore orders after its lane's head, which is in
// the heap, so the heap's top is still the least pending key. Link
// events hand out no Timer, so a lane holds no tombstones.
type lane struct {
	first, last *event // waiting behind the head, oldest first
	tail        key    // the newest member's key
	busy        bool   // the lane's head is in the heap
}

// admit reports whether a slot keyed k may join the lane: as its head
// when the lane is idle, or behind its tail.
func (l *lane) admit(k *key) bool { return !l.busy || l.tail.less(k) }

// push queues s behind the head.
func (l *lane) push(s slot) {
	e := s.ev
	e.k = s.key
	if l.last == nil {
		l.first = e
	} else {
		l.last.next = e
	}
	l.last = e
}

// shift removes the head's successor and returns its heap slot.
func (l *lane) shift() slot {
	e := l.first
	l.first, e.next = e.next, nil
	if l.first == nil {
		l.last = nil
	}
	return slot{e.k, e}
}

// arity is the heap's branching factor. Four children per node halve
// the depth a sift walks; each level's extra comparisons read slots
// that sit side by side in one or two cache lines. Measured by
// netsim.sched_run_ns at churn's depth (10 k pending) and bulk's
// (155) against the binary layout; see DESIGN §4.
const arity = 4

// evCore is one event heap plus its clock, freelist and counters: one
// shard of the engine, or the whole store of an RTClock (which keeps
// time itself and leaves now unused). The heap is a d-ary min-heap of
// value slots, written out rather than driven through container/heap
// so a sift is a loop over one slice with no interface call per
// comparison. Every instrument has a single writer (the goroutine
// running the core, or on an RTClock whoever holds its lock), which is
// the discipline that lets the engine avoid atomics: cross-core reads
// only happen at barriers.
type evCore struct {
	now    Time
	events []slot
	// behind counts slots waiting in lanes behind their heads: pending,
	// but not in events.
	behind int

	// free recycles executed and compacted-away events. An event is
	// only recycled once it is out of the heap, and its gen counter is
	// bumped so a stale Timer can never cancel the reincarnation. The
	// freelist is per-core: a recycled event (and the generation-tagged
	// Timer protocol built on it) never crosses shards.
	free []*event

	scheduled metrics.Counter
	executed  metrics.Counter
	cancelled metrics.Counter
	// deadPending counts cancelled events still sitting in this core's
	// heap. When they outnumber the live ones (lane slots included) the
	// heap is compacted, so a workload that arms and cancels many timers
	// (retransmission timers across thousands of flows) cannot grow the
	// heap without bound. Both the count and the compaction are
	// shard-local.
	deadPending int
}

// pending counts the core's events: heap slots, tombstones included,
// plus lane slots.
func (c *evCore) pending() int { return len(c.events) + c.behind }

// post pushes a recycled (or fresh) event under the full ordering key.
// The caller has already clamped at and computed schedAt/rank/seq;
// kind-specific fields are filled in afterwards.
func (c *evCore) post(at, schedAt Time, rank int32, seq uint64) *event {
	c.scheduled.Inc()
	return c.push(nil, at, schedAt, rank, seq)
}

// postLink posts a tagged link event of kind on lnk. Unless oob, it
// joins the link's lane for kind if the append rule lets it.
func (c *evCore) postLink(kind uint8, lnk *linkCore, oob bool, at, schedAt Time, rank int32, seq uint64) *event {
	c.scheduled.Inc()
	return c.pushLink(kind, lnk, oob, at, schedAt, rank, seq)
}

// postForeign ingests a cross-shard mailbox delivery: the event keeps
// the sender's key (already counted as scheduled on the sender's core)
// so the comparator alone decides its order among local events, and
// joins the link's delivery lane on this core like a local one.
func (c *evCore) postForeign(m *mail) {
	e := c.pushLink(evDeliver, &m.lnk.linkCore, m.oob, m.at, m.schedAt, m.rank, m.seq)
	e.pkt = Packet{Data: m.data, ECN: m.ecn}
}

// pushLink files a tagged link event, offering it to lnk's lane for
// kind unless oob.
func (c *evCore) pushLink(kind uint8, lnk *linkCore, oob bool, at, schedAt Time, rank int32, seq uint64) *event {
	var ln *lane
	if !oob {
		ln = lnk.lane(kind)
	}
	e := c.push(ln, at, schedAt, rank, seq)
	e.kind = kind
	e.lnk = lnk
	return e
}

// push takes an event off the freelist (or makes one) and files its
// slot: behind ln's head when the lane admits it, otherwise sifted up
// from the end of the heap (as ln's head when the lane was idle).
func (c *evCore) push(ln *lane, at, schedAt Time, rank int32, seq uint64) *event {
	var e *event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		e.dead = false
	} else {
		e = &event{core: c}
	}
	s := slot{key{at: at, schedAt: schedAt, seq: seq, rank: rank}, e}
	if ln != nil && ln.admit(&s.key) {
		e.laned = true
		ln.tail = s.key
		if ln.busy {
			ln.push(s)
			c.behind++
			return e
		}
		ln.busy = true
	}
	h := append(c.events, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !s.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
	c.events = h
	return e
}

// pop removes the least slot and returns its time and event. A lane
// head hands the root to its successor; an emptied lane goes idle.
func (c *evCore) pop() (Time, *event) {
	h := c.events
	at, e := h[0].at, h[0].ev
	if e.laned {
		ln := e.lnk.lane(e.kind)
		if ln.first != nil {
			c.behind--
			siftDown(h, 0, ln.shift())
			return at, e
		}
		ln.busy = false
	}
	n := len(h) - 1
	if n > 0 {
		siftDown(h[:n], 0, h[n])
	}
	h[n].ev = nil // the vacated tail must not pin its event
	c.events = h[:n]
	return at, e
}

// siftDown places s in the subtree rooted at the hole i.
func siftDown(h []slot, i int, s slot) {
	for {
		first := arity*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for j := first + 1; j < first+arity && j < len(h); j++ {
			if h[j].less(&h[least]) {
				least = j
			}
		}
		if !h[least].less(&s) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = s
}

// recycle returns an event that left the heap to the core's freelist.
func (c *evCore) recycle(e *event) {
	e.gen++
	e.kind = evFunc
	e.laned = false
	e.fn = nil
	e.lnk = nil
	e.pkt = Packet{}
	c.free = append(c.free, e)
}

// maybeCompact rebuilds the heap without tombstones once cancelled
// events outnumber live ones. Rebuilding is O(n), amortized O(1) per
// cancellation since at least half the heap is discarded each time.
// The live slots are filtered to the front of the same array: the
// pushes that follow a compaction refill capacity the heap already
// owns instead of regrowing an exact-size copy.
func (c *evCore) maybeCompact() {
	if c.deadPending*2 <= c.pending() {
		return
	}
	h := c.events
	live := h[:0]
	for _, s := range h {
		if s.ev.dead {
			c.recycle(s.ev)
		} else {
			live = append(live, s)
		}
	}
	clear(h[len(live):])
	if len(live) > 1 {
		for i := (len(live) - 2) / arity; i >= 0; i-- {
			siftDown(live, i, live[i])
		}
	}
	c.events = live
	c.deadPending = 0
}

// dropDead pops the tombstone at the top of the heap.
func (c *evCore) dropDead() {
	_, e := c.pop()
	c.recycle(e)
	c.deadPending--
}

// step executes the next pending event, reporting false on an empty
// heap.
func (c *evCore) step(tr Tracer) bool {
	for len(c.events) > 0 {
		if c.events[0].ev.dead {
			c.dropDead()
			continue
		}
		at, e := c.pop()
		e.dead = true // a fired timer is no longer Active
		c.now = at
		c.executed.Inc()
		dispatch(e, at, tr)
		c.recycle(e)
		return true
	}
	return false
}

// runBefore executes every event strictly before the (at, schedAt,
// rank, seq) bound — the sharded engine's window body. Events a
// callback schedules inside the bound run in the same pass.
func (c *evCore) runBefore(at, schedAt Time, rank int32, seq uint64, tr Tracer) {
	for len(c.events) > 0 {
		top := &c.events[0]
		if top.ev.dead {
			c.dropDead()
			continue
		}
		if !top.before(at, schedAt, rank, seq) {
			return
		}
		c.step(tr)
	}
}

// nextAt returns the execution time of the earliest live event, popping
// tombstones off the top, or ok=false on an empty heap. Only safe to
// call when the core is not running (at a barrier).
func (c *evCore) nextAt() (Time, bool) {
	for len(c.events) > 0 {
		if c.events[0].ev.dead {
			c.dropDead()
			continue
		}
		return c.events[0].at, true
	}
	return 0, false
}

// dispatch runs one live event. Tagged kinds keep the per-packet link
// events closure-free; everything else goes through fn.
func dispatch(e *event, at Time, tr Tracer) {
	switch e.kind {
	case evDeliver:
		e.lnk.deliver(&e.pkt, at, tr)
	case evQueueFree:
		e.lnk.setQueued(e.lnk.queued - 1)
	case evWire:
		e.lnk.wire(e.pkt.Data, e.pkt.ECN)
	default:
		e.fn()
	}
}

// Simulator is the sequential simulator: a driver handle on a one-shard
// engine and its single rank-0 root view. Everything a Backend does
// (Now, Rand, Schedule, ScheduleTimer, Every, NewLink, RunFor, Steps,
// Exec, SetTracer, Tracer, Close) is the embedded view's; the methods
// defined here are the step-by-step driver surface only the one-shard
// case can offer. It is not safe for concurrent use; all protocol code
// runs single-threaded inside event callbacks, which is what makes
// runs reproducible.
type Simulator struct {
	*view
	busSeq int
}

// Option configures a Simulator at construction.
type Option func(*Simulator)

// WithMetrics registers the simulator's event counters and every
// subsequently created Link and Bus into reg under "netsim/...".
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Simulator) { s.eng.msc = reg.Scope("netsim") }
}

// NewSimulator returns a simulator whose randomness derives from seed.
// Its view draws from the seed-only stream (the engine's), not a
// rank-derived one, and is where every schedule lands: nothing on a
// Simulator ever goes to the engine's control core.
func NewSimulator(seed int64, opts ...Option) *Simulator {
	e := newSharded(seed, 1)
	root := &view{eng: e, core: e.cores[0], rng: e.rng}
	e.views = append(e.views, root)
	s := &Simulator{view: root}
	for _, o := range opts {
		o(s)
	}
	if e.msc != nil {
		// Plain counters, not sums: one core writes them all.
		sc := e.msc.Sub("events")
		sc.Register("scheduled", &s.core.scheduled)
		sc.Register("executed", &s.core.executed)
		sc.Register("cancelled", &s.core.cancelled)
	}
	return s
}

// Name identifies the simulator backend.
func (s *Simulator) Name() string { return "sim" }

// Timer is a handle to a scheduled callback, on any backend: every
// backend schedules into an evCore. It remembers the event's generation
// at scheduling time: once the event fires (or is stopped) and gets
// recycled for an unrelated callback, the stale handle goes inert
// instead of cancelling the new occupant. A zero Timer is inert, so
// protocol structs can hold one by value before ever arming it.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// cancellation prevented a pending firing. Cancellation is lazy: the
// event is marked dead and its slot stays where it is, a tombstone
// that is dropped when it reaches the top, so Stop never has to find
// the slot and slots need not record where they are. Once tombstones
// exceed half the heap the owning core compacts it, so cancelled
// timers cannot leak — the bookkeeping (cancelled counter,
// deadPending) lives on the core that owns the event, never globally.
// On real-time backends the caller must hold the backend lock (be
// inside a callback or Exec), which is already true of all protocol
// code.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	c := t.ev.core
	c.cancelled.Inc()
	c.deadPending++
	c.maybeCompact()
	return true
}

// Active reports whether the timer is still pending. The locking rule
// matches Stop's.
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// ScheduleAt runs fn at absolute virtual time at (clamped to ≥ now).
func (s *Simulator) ScheduleAt(at Time, fn func()) *Timer {
	e := s.post(at)
	e.fn = fn
	return &Timer{ev: e, gen: e.gen}
}

// Pending returns the number of events waiting in the heap and the
// link lanes, tombstones included (tests and capacity planning).
func (s *Simulator) Pending() int { return s.eng.Pending() }

// Step executes the next pending event. It reports false when the queue
// is empty.
func (s *Simulator) Step() bool {
	if !s.core.step(s.eng.tracer) {
		return false
	}
	s.eng.now = s.core.now // one shard: its clock is the barrier clock
	return true
}

// Run executes events until the queue drains or the step limit is hit;
// it returns the number of events executed. A zero limit means no
// limit. Protocols with periodic timers never drain the queue, so most
// callers use RunFor instead.
func (s *Simulator) Run(limit int) int {
	n := 0
	for (limit == 0 || n < limit) && s.Step() {
		n++
	}
	return n
}

// RunUntil executes all events scheduled up to and including time t,
// then sets the clock to t.
func (s *Simulator) RunUntil(t Time) { s.eng.RunUntil(t) }

// timerScheduler is the sliver of Backend a Repeater needs to re-arm;
// the engine's views and the RTClock satisfy it.
type timerScheduler interface {
	ScheduleTimer(d time.Duration, fn func()) Timer
}

// Repeater is a periodic timer, usable on any backend.
type Repeater struct {
	sched    timerScheduler
	interval time.Duration
	fn       func()
	tick     func() // built once; re-arming allocates nothing
	t        Timer
	stopped  bool
}

func newRepeater(s timerScheduler, interval time.Duration, fn func()) *Repeater {
	r := &Repeater{sched: s, interval: interval, fn: fn}
	r.tick = func() {
		if r.stopped {
			return
		}
		r.fn()
		if !r.stopped {
			r.arm()
		}
	}
	r.arm()
	return r
}

func (r *Repeater) arm() {
	r.t = r.sched.ScheduleTimer(r.interval, r.tick)
}

// Stop cancels future firings.
func (r *Repeater) Stop() {
	r.stopped = true
	r.t.Stop()
}

func (s *Simulator) String() string {
	return fmt.Sprintf("sim(t=%v, pending=%d, steps=%d)", s.Now(), s.Pending(), s.Steps())
}
