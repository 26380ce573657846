package netsim

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
)

// RTClock is the real-time scheduling core shared by the non-simulated
// backends (channet, udpnet). It runs the simulator's own event store
// (evCore) against the wall clock: every timer and every link event is
// a recycled value slot keyed by its wall deadline, and one dispatcher
// goroutine per clock sleeps until the earliest deadline, then runs
// every due event in key order. Every protocol callback runs on that
// goroutine with mu held, so protocol code written for the simulator
// runs unchanged.
//
// The locking rule is the simulator's single-threadedness made
// explicit: everything that touches the clock — scheduling, Timer.Stop,
// link creation and sends, Rand — runs with mu held, either inside a
// callback or inside Exec. Now, Steps, RunFor, Exec and Close are the
// driver's calls and are made without it.
//
// RTClock is not itself a Backend — it has no links. A backend embeds
// it and adds NewLink plus resource cleanup on Close.
type RTClock struct {
	name  string
	seed  int64 // links derive their impairment streams from it
	start time.Time

	mu     sync.Mutex
	core   evCore
	seq    uint64 // post order: the key's last tiebreak
	rng    *rand.Rand
	tracer Tracer
	closed bool
	// dispatching is set while the dispatcher runs a pass; posts made
	// then need no wake-up, since the pass ends by reading nextAt.
	dispatching bool
	// armed is the deadline the dispatcher sleeps toward (maxTime when
	// the store is empty): an outside post due earlier must wake it.
	armed Time
	wake  chan struct{} // 1-buffered
	quit  chan struct{} // closed by Close
	done  chan struct{} // closed when the dispatcher exits

	// steps counts executed callbacks/deliveries; atomic so Steps()
	// stays callable from the driver without the lock.
	steps atomic.Uint64

	msc     *metrics.Scope
	linkSeq int
}

const maxTime = Time(math.MaxInt64)

// NewRTClock builds the real-time core for a backend named name and
// starts its dispatcher. When reg is non-nil the event store's counters
// register under "netsim/events" and links created later register under
// "netsim/link<n>" — the same instrument shape the simulator exports,
// so dashboards and snapshots read identically across backends.
func NewRTClock(name string, seed int64, reg *metrics.Registry) *RTClock {
	c := &RTClock{
		name: name, seed: seed, start: time.Now(), rng: rand.New(rand.NewSource(seed)),
		armed: maxTime, wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{}),
	}
	if reg != nil {
		c.msc = reg.Scope("netsim")
		sc := c.msc.Sub("events")
		sc.Register("scheduled", &c.core.scheduled)
		sc.Register("executed", &c.core.executed)
		sc.Register("cancelled", &c.core.cancelled)
	}
	go c.run()
	return c
}

// Name returns the backend name given at construction.
func (c *RTClock) Name() string { return c.name }

// Now returns wall-clock nanoseconds since the clock was built.
func (c *RTClock) Now() Time { return Time(time.Since(c.start)) }

// Rand returns the backend-owned random source. Callers must hold the
// lock (be inside a callback or Exec), as with all protocol state.
func (c *RTClock) Rand() *rand.Rand { return c.rng }

// post files an event due at, posted at now, under the key (at, now,
// 0, post order): due events run by deadline, then by post time, then
// in post order. Outside a dispatch pass, a deadline earlier than the
// armed one wakes the dispatcher. After Close it files nothing and
// returns nil. Callers hold the lock.
func (c *RTClock) post(at, now Time, kind uint8, lnk *linkCore, oob bool) *event {
	if c.closed {
		return nil
	}
	c.seq++
	var e *event
	if lnk == nil {
		e = c.core.post(at, now, 0, c.seq)
	} else {
		e = c.core.postLink(kind, lnk, oob, at, now, 0, c.seq)
	}
	if !c.dispatching && at < c.armed {
		c.armed = at
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	return e
}

// postPacket files a tagged packet event on lnk; after Close the
// buffer goes straight back to the pool.
func (c *RTClock) postPacket(at, now Time, kind uint8, lnk *linkCore, oob bool, data []byte, ecn bool) {
	e := c.post(at, now, kind, lnk, oob)
	if e == nil {
		bufpool.Put(data)
		return
	}
	e.pkt = Packet{Data: data, ECN: ecn}
}

// ScheduleTimer arms fn to run after d. Callers hold the lock.
func (c *RTClock) ScheduleTimer(d time.Duration, fn func()) Timer {
	now := c.Now()
	e := c.post(now+durTicks(max(d, 0)), now, evFunc, nil, false)
	if e == nil {
		return Timer{}
	}
	e.fn = fn
	return Timer{ev: e, gen: e.gen}
}

// Schedule runs fn once after delay d (clamped to ≥ 0). Callers hold
// the lock.
func (c *RTClock) Schedule(d time.Duration, fn func()) *Timer {
	t := c.ScheduleTimer(d, fn)
	return &t
}

// Every runs fn every interval until the Repeater is stopped. Callers
// hold the lock.
func (c *RTClock) Every(interval time.Duration, fn func()) *Repeater {
	return newRepeater(c, interval, fn)
}

// run is the dispatcher: run every due event, read the next deadline,
// release the lock and sleep until that deadline, a wake-up or Close.
func (c *RTClock) run() {
	defer close(c.done)
	sleep := time.NewTimer(time.Hour)
	sleep.Stop()
	c.mu.Lock()
	for {
		c.runDue()
		next, ok := c.core.nextAt()
		c.armed = maxTime
		if ok {
			c.armed = next
		}
		c.mu.Unlock()
		// go.mod's language version keeps the pre-1.23 timer channel:
		// sleep is stopped and drained after every wait, so Reset
		// always starts from a clean timer.
		var fire <-chan time.Time
		if ok {
			sleep.Reset(time.Duration(next - c.Now()))
			fire = sleep.C
		}
		select {
		case <-fire:
		case <-c.wake:
		case <-c.quit:
			return
		}
		if ok && !sleep.Stop() {
			select {
			case <-sleep.C:
			default:
			}
		}
		c.mu.Lock()
	}
}

// runDue executes, in key order, every live event whose deadline has
// passed, including those its callbacks post due already. Deliveries
// are traced at the instant they run.
func (c *RTClock) runDue() {
	c.dispatching = true
	for !c.closed {
		s := c.core.top()
		if s == nil {
			break
		}
		now := c.Now()
		if s.at > now {
			break
		}
		_, e := c.core.pop()
		e.dead = true // a fired timer is no longer Active
		c.core.executed.Inc()
		c.steps.Add(1)
		dispatch(e, now, c.tracer)
		c.core.recycle(e)
	}
	c.dispatching = false
}

// RunFor sleeps for d of wall-clock time while the dispatcher makes
// progress. Driver-side only — calling it from a callback would stall
// every other callback for d.
func (c *RTClock) RunFor(d time.Duration) { time.Sleep(d) }

// Steps counts callbacks and deliveries executed so far.
func (c *RTClock) Steps() uint64 { return c.steps.Load() }

// Pending counts events waiting in the store, with the tombstones not
// yet discarded at a split, near's top or a compaction (see
// Simulator.Pending). Callers hold the lock.
func (c *RTClock) Pending() int { return c.core.pending() }

// Exec runs fn with the clock lock held — the driver's doorway into
// protocol state. It runs even after Close (drivers harvest final
// state that way); fn must not call Exec or RunFor.
func (c *RTClock) Exec(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// SetTracer attaches (nil detaches) the tracer. Call before traffic
// flows, or from inside Exec.
func (c *RTClock) SetTracer(t Tracer) { c.tracer = t }

// Tracer returns the attached tracer, or nil when tracing is off.
func (c *RTClock) Tracer() Tracer { return c.tracer }

// Close stops the dispatcher and waits for it to exit: pending events
// never run, and later posts file nothing. Backends layer socket
// teardown on top. Safe to call more than once; call it from the
// driver, not from a callback.
func (c *RTClock) Close() error {
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	c.mu.Unlock()
	if first {
		close(c.quit)
	}
	<-c.done
	return nil
}

// RTLinkCore is the wall-clock link: the shared link core — the same
// impairment pipeline, per-link stream, metrics and trace identity the
// engine's Link has — whose plans become events on the RTClock's store.
// On its own it is the in-process carriage (channet): a delivery is a
// tagged event that runs the arrival half and the destination handler
// at the packet's deadline. With a wire hook it is the socket
// carriage's sending half (udpnet): the event hands the packet to the
// wire instead, and the reader posts the real arrival through Receive.
// All methods but Receive require the clock lock.
type RTLinkCore struct {
	linkCore
	clk *RTClock
}

// NewRTLinkCore names, registers and returns the backend's next link,
// delivering to dst. A nil wire makes it an in-process link.
func NewRTLinkCore(clk *RTClock, cfg LinkConfig, dst Handler, wire func(data []byte, ecn bool)) *RTLinkCore {
	l := &RTLinkCore{clk: clk}
	l.init(cfg, dst, clk.seed, clk.linkSeq, clk.msc)
	l.wire = wire
	clk.linkSeq++
	return l
}

// Send copies data into a pooled buffer and transmits it.
func (l *RTLinkCore) Send(data []byte) { l.SendOwned(l.ingest(l.clk.tracer, data), false) }

// SendOwned runs the impairment pipeline for one owned buffer at the
// current wall-clock instant and posts its fate: the serializer slot's
// release, the arrival (or wire hand-off) Delay later, and a duplicate
// one microsecond behind it. Reorder-delayed and duplicate packets skip
// the link's lane, so FIFO traffic can overtake them, as on the
// simulator.
func (l *RTLinkCore) SendOwned(data []byte, ecn bool) {
	now := l.clk.Now()
	p, ok := l.plan(now, l.clk.tracer, data, ecn)
	if !ok {
		return
	}
	if p.Queued {
		l.clk.post(now+durTicks(p.Wait), now, evQueueFree, &l.linkCore, false)
	}
	kind := evDeliver
	if l.wire != nil {
		kind = evWire
	}
	arrive := now + durTicks(p.Delay)
	l.clk.postPacket(arrive, now, kind, &l.linkCore, p.Late, data, p.ECN)
	if p.Dup {
		l.clk.postPacket(arrive+durTicks(time.Microsecond), now, kind, &l.linkCore, true, p.DupData, p.ECN)
	}
}

// Receive posts a packet that came back off the wire as an arrival due
// now. It takes the clock lock itself: a socket reader goroutine calls
// it.
func (l *RTLinkCore) Receive(data []byte, ecn bool) {
	l.clk.mu.Lock()
	defer l.clk.mu.Unlock()
	now := l.clk.Now()
	l.clk.postPacket(now, now, evDeliver, &l.linkCore, false, data, ecn)
}

// SendFailed accounts for a packet the plan let through but the
// carriage could not put on the wire: a send-side down_drop, traced as
// one, so the link's books still balance. The buffer is pooled.
func (l *RTLinkCore) SendFailed(data []byte) {
	l.drop(&l.m.DownDrop, VerdictDownDrop, l.clk.Now(), l.clk.tracer, data)
}
