package netsim

// Sharded is the discrete-event engine, the only one: the topology is
// partitioned into per-shard event heaps (evCore), synchronized by
// conservative lookahead windows, with cross-shard packet delivery
// through batched, sequence-numbered mailboxes — the classic
// null-message/time-bucket design. A Simulator (sim.go) is this engine
// with one shard and one view.
//
// # Determinism
//
// Every event carries the canonical key (at, schedAt, rank, seq):
// execution time, scheduling time, the scheduling node's stable rank,
// and that node's local sequence number. The heap comparator orders by
// the full key, so the order in which mailbox entries are ingested —
// or shards interleave — is irrelevant: the key alone decides. Ranks
// are assigned per node view in creation order, independent of the
// shard count, so shards=1, shards=4 and a Simulator (whose one view
// has rank 0, below every other) all execute the same schedule and
// produce byte-identical metrics at any GOMAXPROCS.
//
// # Lookahead
//
// The lookahead L is the minimum propagation delay over all
// cross-shard links (cut links must have positive delay — enforced at
// link creation). A window runs every shard in parallel up to
// min(T0+L, target) where T0 is the global minimum next-event time;
// any packet sent during the window arrives no earlier than T0+L, so
// it can always be mailed to its destination shard at the barrier
// before that shard's clock reaches it. The flush asserts this ("torn
// lookahead") instead of trusting it.
//
// # Control events
//
// The engine's own Backend surface is its control view: a view like
// any node's, but on a dedicated control core with rank ctlRank, above
// every node rank. Driver-context schedules (workload dials, fault
// injections, watchdog arms) and links created on the engine itself
// land there — matching the sequential rule that a driver's schedule
// call always has a later global sequence number than protocol events
// scheduled at the same instant. Control events execute serially at
// barriers with every shard parked and run up to the control event's
// full key.
//
// # Single-writer metrics
//
// Counters are plain uint64 (no atomics). Each instrument has exactly
// one writing shard; cross-window reads happen at barriers, whose
// synchronization provides the happens-before. Per-shard event
// counters export under the sequential names via metrics.CounterSum.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ctlRank orders driver-context (control) events after every node
// view's events at the same (at, schedAt).
const ctlRank = int32(1) << 30

// Sharder is implemented by backends that partition the world into
// shards. Topology builders detect it to place each node on a shard
// via NodeView; everything else keeps talking plain Backend.
type Sharder interface {
	// Shards returns the number of shards (≥ 1).
	Shards() int
	// NodeView returns a Backend view pinned to the given shard for
	// one node. Views must be created in a deterministic order — the
	// creation index is the node's rank in the event-ordering key, and
	// must not depend on the shard count.
	NodeView(shard int) Backend
}

// LinkOn creates a unidirectional link from the src backend delivering
// into dstB's shard. On non-sharded backends (or when dstB is nil or
// equal to src) it is plain NewLink; on the sharded engine it wires
// the cross-shard mailbox path when src and dst live on different
// shards.
func LinkOn(src Backend, cfg LinkConfig, dst Handler, dstB Backend) Port {
	type linkTo interface {
		NewLinkTo(cfg LinkConfig, dst Handler, dstB Backend) Port
	}
	if lt, ok := src.(linkTo); ok && dstB != nil {
		return lt.NewLinkTo(cfg, dst, dstB)
	}
	return src.NewLink(cfg, dst)
}

// mail is one cross-shard delivery waiting for the next barrier: the
// full ordering key plus the packet. The buffer hand-off is explicit —
// the sending shard appends and never touches data again; the
// receiving shard owns it once the barrier flush ingests the entry.
type mail struct {
	at      Time
	schedAt Time
	rank    int32
	seq     uint64
	lnk     *Link
	data    []byte
	ecn     bool
	oob     bool // skips the link's delivery lane (see linkEnv)
}

// windowBound broadcasts one window's exclusive event-key bound to the
// shard workers.
type windowBound struct {
	at      Time
	schedAt Time
	rank    int32
	seq     uint64
}

// Sharded implements Backend (driver surface) and Sharder. Everything
// a driver schedules or wires on the engine (Now, Rand, Schedule,
// ScheduleTimer, Every, NewLink) is the embedded control view's, the
// way a Simulator's is its root view's; the methods defined here are
// the engine-wide ones every view delegates to.
type Sharded struct {
	*view // control view: core ctl, rank ctlRank, rng the seed stream
	seed  int64
	now   Time // barrier clock: all shards have completed up to here
	cores []*evCore
	ctl   evCore  // driver/control events, rank ctlRank
	views []*view // node views in rank order; the control view is not one
	// look is the conservative lookahead: the minimum delay over
	// cross-shard links. Zero means no cut links yet (infinite
	// lookahead).
	look Time
	// mbox[src][dst] holds deliveries from shard src into shard dst.
	// Exactly one shard appends to each slice during a window (the
	// single-writer rule); barriers drain them all.
	mbox    [][][]mail
	msc     *metrics.Scope
	linkSeq int
	tracer  Tracer
	rng     *rand.Rand

	started bool
	work    []chan windowBound
	wg      sync.WaitGroup
	running bool
}

// newSharded builds an engine with no metrics scope attached.
func newSharded(seed int64, shards int) *Sharded {
	e := &Sharded{seed: seed, rng: rand.New(rand.NewSource(seed))}
	e.view = &view{eng: e, core: &e.ctl, rank: ctlRank, rng: e.rng}
	e.cores = make([]*evCore, shards)
	for i := range e.cores {
		e.cores[i] = &evCore{}
	}
	e.mbox = make([][][]mail, shards)
	for i := range e.mbox {
		e.mbox[i] = make([][]mail, shards)
	}
	return e
}

// NewSharded builds a sharded engine with the given shard count
// (clamped to ≥ 1). When reg is non-nil the per-shard event counters
// register under the sequential names ("netsim/events/...") as sums.
func NewSharded(seed int64, shards int, reg *metrics.Registry) *Sharded {
	if shards < 1 {
		shards = 1
	}
	e := newSharded(seed, shards)
	if reg != nil {
		e.msc = reg.Scope("netsim")
		sc := e.msc.Sub("events")
		var sched, exec, canc metrics.CounterSum
		for _, c := range e.cores {
			sched = append(sched, &c.scheduled)
			exec = append(exec, &c.executed)
			canc = append(canc, &c.cancelled)
		}
		sched = append(sched, &e.ctl.scheduled)
		exec = append(exec, &e.ctl.executed)
		canc = append(canc, &e.ctl.cancelled)
		sc.Register("scheduled", sched)
		sc.Register("executed", exec)
		sc.Register("cancelled", canc)
	}
	return e
}

// Shards implements Sharder.
func (e *Sharded) Shards() int { return len(e.cores) }

// NodeView implements Sharder: it returns a Backend pinned to shard,
// with the next creation-order rank. The rank sequence must be the
// same for every shard count, which topology builders guarantee by
// creating views in sorted node order.
func (e *Sharded) NodeView(shard int) Backend {
	if shard < 0 || shard >= len(e.cores) {
		panic(fmt.Sprintf("netsim: NodeView shard %d out of range [0,%d)", shard, len(e.cores)))
	}
	rank := int32(len(e.views))
	v := &view{
		eng:   e,
		core:  e.cores[shard],
		shard: shard,
		rank:  rank,
		rng:   rand.New(rand.NewSource(e.seed ^ (int64(rank)+1)*0x7F4A7C159E3779B9)),
	}
	e.views = append(e.views, v)
	return v
}

// RunFor advances the engine by d of virtual time.
func (e *Sharded) RunFor(d time.Duration) { e.RunUntil(e.now + durTicks(d)) }

// Steps returns the total events executed across every shard and the
// control core.
func (e *Sharded) Steps() uint64 {
	n := e.ctl.executed.Value()
	for _, c := range e.cores {
		n += c.executed.Value()
	}
	return n
}

// Pending counts events waiting in every shard's heap and lanes, the
// control core's and the mailboxes, tombstones included — the
// shard-aware version of Simulator.Pending.
func (e *Sharded) Pending() int {
	n := e.ctl.pending()
	for _, c := range e.cores {
		n += c.pending()
	}
	for si := range e.mbox {
		for di := range e.mbox[si] {
			n += len(e.mbox[si][di])
		}
	}
	return n
}

// Exec runs fn in driver context. All shards are parked between Run*
// calls and the barrier's synchronization makes their writes visible,
// so an inline call is safe.
func (e *Sharded) Exec(fn func()) { fn() }

// SetTracer attaches the causal tracer. With more than one shard the
// tracer is wrapped in a serializing adapter — emission order across
// shards is an execution artifact, so trace artifact byte-gates stay
// pinned to the sequential backend, but the content remains complete
// and race-free.
func (e *Sharded) SetTracer(t Tracer) {
	if t != nil && len(e.cores) > 1 {
		t = &lockedTracer{t: t}
	}
	e.tracer = t
}

// Close stops the shard workers.
func (e *Sharded) Close() error {
	if e.work != nil {
		for _, ch := range e.work {
			close(ch)
		}
		e.work = nil
	}
	return nil
}

// ensureWorkers starts one goroutine per shard (none for a single
// shard). Workers park on their channel between windows; the
// send/Wait pair is the barrier synchronization that publishes each
// window's writes to the driver and the other shards.
func (e *Sharded) ensureWorkers() {
	if e.started {
		return
	}
	e.started = true
	if len(e.cores) == 1 {
		return
	}
	e.work = make([]chan windowBound, len(e.cores))
	for i := range e.cores {
		ch := make(chan windowBound, 1)
		e.work[i] = ch
		c := e.cores[i]
		go func() {
			for b := range ch {
				c.runBefore(b.at, b.schedAt, b.rank, b.seq, e.tracer)
				e.wg.Done()
			}
		}()
	}
}

// runWindow executes every shard in parallel up to (exclusive) the
// given event key, then returns with all shards parked.
func (e *Sharded) runWindow(at, schedAt Time, rank int32, seq uint64) {
	if e.work == nil {
		e.cores[0].runBefore(at, schedAt, rank, seq, e.tracer)
		return
	}
	e.wg.Add(len(e.cores))
	b := windowBound{at: at, schedAt: schedAt, rank: rank, seq: seq}
	for _, ch := range e.work {
		ch <- b
	}
	e.wg.Wait()
}

// flush drains every mailbox into its destination heap. minAt is the
// completed horizon: an entry below it would have had to execute in a
// window that already ran — a torn lookahead — so it panics rather
// than silently diverging from the sequential schedule.
func (e *Sharded) flush(minAt Time) {
	for si := range e.mbox {
		for di := range e.mbox[si] {
			ms := e.mbox[si][di]
			if len(ms) == 0 {
				continue
			}
			dst := e.cores[di]
			for i := range ms {
				m := &ms[i]
				if m.at < minAt {
					panic(fmt.Sprintf("netsim: torn lookahead: cross-shard delivery at %v is before the completed horizon %v", m.at, minAt))
				}
				dst.postForeign(m)
				ms[i] = mail{} // ownership handed to the destination shard
			}
			e.mbox[si][di] = ms[:0]
		}
	}
}

// RunUntil executes all events with at ≤ t across every shard, then
// sets the barrier clock to t. Driver only, like every backend.
func (e *Sharded) RunUntil(t Time) {
	e.ensureWorkers()
	if e.running {
		panic("netsim: RunUntil re-entered on the sharded engine")
	}
	e.running = true
	defer func() { e.running = false }()
	// Driver code (Exec between Run* calls) may have sent through
	// cross-shard links; ingest that mail before the first window so
	// the window start accounts for it.
	e.flush(e.now)
	for {
		// Barrier state: find the global minimum next-event time.
		T0 := Time(math.MaxInt64)
		for _, c := range e.cores {
			if at, ok := c.nextAt(); ok && at < T0 {
				T0 = at
			}
		}
		ctlAt, ctlOK := e.ctl.nextAt()
		if ctlOK && ctlAt < T0 {
			T0 = ctlAt
		}
		if T0 > t {
			break
		}
		// Window horizon, exclusive on at: the budget, or one lookahead
		// past the window start when cut links bound it.
		h := t + 1
		if e.look > 0 {
			if w := T0 + e.look; w < h {
				h = w
			}
		}
		if ctlOK && ctlAt < h {
			// A control event falls inside the window: run every shard
			// strictly below its key, then execute it serially.
			ce := e.ctl.events[0]
			e.runWindow(ce.at, ce.schedAt, ce.rank, ce.seq)
			e.now = ce.at
			e.ctl.step(e.tracer)
			e.flush(ce.at)
			continue
		}
		e.runWindow(h, math.MinInt64, math.MinInt32, 0)
		if nw := h - 1; nw > e.now && nw <= t {
			e.now = nw
		}
		e.flush(h)
	}
	if e.now < t {
		e.now = t
	}
}

// --- node views ---

// view is one node's Backend handle on the engine, and the only
// implementation of the scheduling and link-event surface: it pins the
// node's events to a shard core and stamps them with the node's stable
// rank and local sequence — the identity half of the deterministic
// merge rule. A Simulator is one view that owns its whole engine; the
// engine's control view is one on the control core.
type view struct {
	eng   *Sharded
	core  *evCore
	shard int
	rank  int32
	seq   uint64
	rng   *rand.Rand
}

// effNow is the node's clock: its core's last executed time, or the
// barrier clock when the engine is further along (e.g. during a
// control event on an idle shard).
func (v *view) effNow() Time {
	if v.core.now > v.eng.now {
		return v.core.now
	}
	return v.eng.now
}

// stamp gives a schedule call the view's identity: at clamped to ≥
// now, the call's time as schedAt, and the view's next seq.
func (v *view) stamp(at Time) (Time, Time) {
	now := v.effNow()
	if at < now {
		at = now
	}
	v.seq++
	return at, now
}

// post pushes an event with the view's identity.
func (v *view) post(at Time) *event {
	at, now := v.stamp(at)
	return v.core.post(at, now, v.rank, v.seq)
}

// Name identifies the backend kind.
func (v *view) Name() string { return "sharded" }

// Now returns the node's clock.
func (v *view) Now() Time { return v.effNow() }

// Rand is the node's random stream, derived from (seed, rank) so it is
// identical at every shard count.
func (v *view) Rand() *rand.Rand { return v.rng }

// Schedule runs fn after delay d on the node's shard.
func (v *view) Schedule(d time.Duration, fn func()) *Timer {
	e := v.post(v.effNow() + durTicks(d))
	e.fn = fn
	return &Timer{ev: e, gen: e.gen}
}

// ScheduleTimer is Schedule returning the Timer by value.
func (v *view) ScheduleTimer(d time.Duration, fn func()) Timer {
	e := v.post(v.effNow() + durTicks(d))
	e.fn = fn
	return Timer{ev: e, gen: e.gen}
}

// Every runs fn periodically on the node's shard.
func (v *view) Every(interval time.Duration, fn func()) *Repeater {
	return newRepeater(v, interval, fn)
}

// NewLink creates a shard-local link delivering to dst on this view's
// shard. For links whose destination lives on another node use LinkOn,
// which routes cross-shard destinations through the mailbox path.
func (v *view) NewLink(cfg LinkConfig, dst Handler) Port {
	return v.newLink(cfg, dst, v)
}

// NewLinkTo creates a link delivering into dstB's shard; dstB must be
// a view (or the Simulator, or the engine's control view) of the same
// engine. Same-shard destinations use the direct heap path;
// cross-shard destinations go through the mailbox and contribute their
// delay to the lookahead bound. The control core joins no such pair:
// its links are created and driven from driver context only.
func (v *view) NewLinkTo(cfg LinkConfig, dst Handler, dstB Backend) Port {
	var dv *view
	switch d := dstB.(type) {
	case *view:
		dv = d
	case *Simulator:
		dv = d.view
	case *Sharded:
		dv = d.view
	}
	if dv == nil || dv.eng != v.eng {
		panic("netsim: NewLinkTo destination must be a view of the same engine")
	}
	var env linkEnv = v
	if dv.core != v.core {
		if v.rank == ctlRank || dv.rank == ctlRank {
			panic("netsim: a link cannot join the control view to a node view")
		}
		if cfg.Delay <= 0 {
			panic("netsim: cross-shard link needs a positive delay (the conservative lookahead)")
		}
		if d := durTicks(cfg.Delay); v.eng.look == 0 || d < v.eng.look {
			v.eng.look = d
		}
		env = &xshardEnv{v: v, dst: dv.shard}
	}
	return v.newLink(cfg, dst, env)
}

func (v *view) newLink(cfg LinkConfig, dst Handler, env linkEnv) Port {
	e := v.eng
	l := &Link{env: env}
	l.init(cfg, dst, e.seed, e.linkSeq, e.msc)
	e.linkSeq++
	return l
}

// RunFor, Steps, Exec, SetTracer, Tracer and Close delegate to the
// engine: they are driver surface, shared across every view.
func (v *view) RunFor(d time.Duration) { v.eng.RunFor(d) }
func (v *view) Steps() uint64          { return v.eng.Steps() }
func (v *view) Exec(fn func())         { v.eng.Exec(fn) }
func (v *view) SetTracer(t Tracer)     { v.eng.SetTracer(t) }
func (v *view) Tracer() Tracer         { return v.eng.tracer }
func (v *view) Close() error           { return v.eng.Close() }

// linkEnv: shard-local scheduling for links created on this view.
func (v *view) envNow() Time      { return v.effNow() }
func (v *view) envTracer() Tracer { return v.eng.tracer }

func (v *view) postDeliver(l *Link, at Time, data []byte, ecn, oob bool) {
	at, now := v.stamp(at)
	e := v.core.postLink(evDeliver, &l.linkCore, oob, at, now, v.rank, v.seq)
	e.pkt = Packet{Data: data, ECN: ecn}
}

func (v *view) postQueueFree(l *Link, at Time) {
	at, now := v.stamp(at)
	v.core.postLink(evQueueFree, &l.linkCore, false, at, now, v.rank, v.seq)
}

// xshardEnv is the send-side context of a cross-shard link: the
// serializer (queue-free events) stays on the sending shard, while
// deliveries are appended — with their full ordering key, in the
// link's post order — to the sender's mailbox toward the destination
// shard, whose flush files them into the link's delivery lane there.
type xshardEnv struct {
	v   *view
	dst int
}

func (x *xshardEnv) envNow() Time      { return x.v.effNow() }
func (x *xshardEnv) envTracer() Tracer { return x.v.eng.tracer }

func (x *xshardEnv) postQueueFree(l *Link, at Time) { x.v.postQueueFree(l, at) }

func (x *xshardEnv) postDeliver(l *Link, at Time, data []byte, ecn, oob bool) {
	v := x.v
	at, now := v.stamp(at)
	// The schedule is accounted on the sending core (matching when the
	// sequential simulator counts it); the event itself materializes on
	// the destination core at the barrier flush.
	v.core.scheduled.Inc()
	box := &v.eng.mbox[v.shard][x.dst]
	*box = append(*box, mail{at: at, schedAt: now, rank: v.rank, seq: v.seq, lnk: l, data: data, ecn: ecn, oob: oob})
}

// lockedTracer serializes a Tracer shared by concurrent shards.
type lockedTracer struct {
	mu sync.Mutex
	t  Tracer
}

func (lt *lockedTracer) Stamp(buf []byte) uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.t.Stamp(buf)
}

func (lt *lockedTracer) ID(buf []byte) uint64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.t.ID(buf)
}

func (lt *lockedTracer) Emit(ev TraceEvent, frame []byte) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.t.Emit(ev, frame)
}

func (lt *lockedTracer) Retire(buf []byte) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.t.Retire(buf)
}
