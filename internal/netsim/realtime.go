package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// RTClock is the real-time scheduling core shared by the non-simulated
// backends (channet, udpnet). It replaces the simulator's event heap
// with real time.Timers and its single-threadedness with one mutex:
// every protocol callback — timer firings, packet deliveries — runs
// with mu held, so protocol code written for the simulator runs
// unchanged. Timer creation never takes the lock (callbacks re-arm
// timers while already holding it); only the firing wrapper does.
//
// RTClock is not itself a Backend — it has no links. A backend embeds
// it and adds NewLink plus resource cleanup on Close.
type RTClock struct {
	name  string
	seed  int64 // links derive their impairment streams from it
	start time.Time

	mu     sync.Mutex
	rng    *rand.Rand
	tracer Tracer
	closed bool

	// steps counts executed callbacks/deliveries; atomic so Steps()
	// stays callable both under Exec and from the driver.
	steps atomic.Uint64

	scheduled metrics.Counter
	executed  metrics.Counter
	cancelled metrics.Counter

	msc     *metrics.Scope
	linkSeq int
}

// NewRTClock builds the real-time core for a backend named name. When
// reg is non-nil the event counters register under "netsim/events" and
// links created later register under "netsim/link<n>" — the same
// instrument shape the simulator exports, so dashboards and snapshots
// read identically across backends.
func NewRTClock(name string, seed int64, reg *metrics.Registry) *RTClock {
	c := &RTClock{name: name, seed: seed, start: time.Now(), rng: rand.New(rand.NewSource(seed))}
	if reg != nil {
		c.msc = reg.Scope("netsim")
		sc := c.msc.Sub("events")
		sc.Register("scheduled", &c.scheduled)
		sc.Register("executed", &c.executed)
		sc.Register("cancelled", &c.cancelled)
	}
	return c
}

// Name returns the backend name given at construction.
func (c *RTClock) Name() string { return c.name }

// Now returns wall-clock nanoseconds since the clock was built.
func (c *RTClock) Now() Time { return Time(time.Since(c.start)) }

// Rand returns the backend-owned random source. Callers must hold the
// lock (be inside a callback or Exec), as with all protocol state.
func (c *RTClock) Rand() *rand.Rand { return c.rng }

// rtTimer is the real-time arm of Timer: a time.AfterFunc whose firing
// wrapper takes the clock lock and re-checks liveness, so Stop (called
// with the lock held) and a concurrent firing can never both win.
type rtTimer struct {
	clk *RTClock
	t   *time.Timer
	// done flips when the timer fires or is stopped; guarded by clk.mu.
	done bool
}

// ScheduleTimer arms fn to run after d with the clock lock held. It is
// safe to call from protocol callbacks (the lock is not re-taken).
func (c *RTClock) ScheduleTimer(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	c.scheduled.Inc()
	rt := &rtTimer{clk: c}
	rt.t = time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if rt.done || c.closed {
			return
		}
		rt.done = true
		c.steps.Add(1)
		c.executed.Inc()
		fn()
	})
	return Timer{rt: rt}
}

// Schedule runs fn once after delay d (clamped to ≥ 0).
func (c *RTClock) Schedule(d time.Duration, fn func()) *Timer {
	t := c.ScheduleTimer(d, fn)
	return &t
}

// Every runs fn every interval until the Repeater is stopped.
func (c *RTClock) Every(interval time.Duration, fn func()) *Repeater {
	return newRepeater(c, interval, fn)
}

// RunFor sleeps for d of wall-clock time while timers and deliveries
// make progress on their own goroutines. Driver-side only — calling it
// from a callback would stall every other callback for d.
func (c *RTClock) RunFor(d time.Duration) { time.Sleep(d) }

// Steps counts callbacks and deliveries executed so far.
func (c *RTClock) Steps() uint64 { return c.steps.Load() }

// Exec runs fn with the clock lock held — the driver's doorway into
// protocol state. It runs even after Close (drivers harvest final
// state that way); fn must not call Exec or RunFor.
func (c *RTClock) Exec(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// ExecStep is Exec for backend-internal delivery paths: it counts one
// step and is suppressed once the clock is closed, so late deliveries
// cannot reach torn-down protocol state.
func (c *RTClock) ExecStep(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.steps.Add(1)
	c.executed.Inc()
	fn()
}

// After arms fn to run once after d under ExecStep semantics. Backends
// use it for delayed transmissions and out-of-band deliveries.
func (c *RTClock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() { c.ExecStep(fn) })
}

// SetTracer attaches (nil detaches) the tracer. Call before traffic
// flows, or from inside Exec.
func (c *RTClock) SetTracer(t Tracer) { c.tracer = t }

// Tracer returns the attached tracer, or nil when tracing is off.
func (c *RTClock) Tracer() Tracer { return c.tracer }

// Close marks the clock closed: pending and future timer firings and
// deliveries become no-ops. Backends layer socket/goroutine teardown
// on top. Safe to call more than once.
func (c *RTClock) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// RTLinkCore is the wall-clock half of a link: the shared link core —
// the same impairment pipeline, per-link stream, metrics and trace
// identity the engine's Link has — driven by RTClock time, leaving only
// the actual carriage (channel, socket) to the owning backend, which
// embeds it. All methods require the clock lock.
type RTLinkCore struct {
	linkCore
	clk *RTClock
}

// NewRTLinkCore names, registers and returns the core for the
// backend's next link.
func NewRTLinkCore(clk *RTClock, cfg LinkConfig) *RTLinkCore {
	l := &RTLinkCore{clk: clk}
	l.init(cfg, clk.seed, clk.linkSeq, clk.msc)
	clk.linkSeq++
	return l
}

// SendFailed accounts for a packet the plan let through but the
// carriage could not put on the wire: a send-side down_drop, traced as
// one, so the link's books still balance. The buffer is pooled.
func (l *RTLinkCore) SendFailed(data []byte) {
	l.drop(&l.m.DownDrop, VerdictDownDrop, l.clk.Now(), l.clk.tracer, data)
}

// Ingest copies data into a pooled buffer and stamps it as a fresh
// trace incarnation — the Port.Send front half, shared by backends.
func (l *RTLinkCore) Ingest(data []byte) []byte { return l.ingest(l.clk.tracer, data) }

// PlanSend runs the impairment pipeline for one owned buffer at the
// current wall-clock instant and arms the serializer slot's release.
// On ok the (possibly corrupted) buffer remains the caller's to carry
// as the plan says; on !ok the packet was dropped and accounted for.
func (l *RTLinkCore) PlanSend(data []byte, ecn bool) (TxPlan, bool) {
	p, ok := l.plan(l.clk.Now(), l.clk.tracer, data, ecn)
	if p.Queued {
		l.clk.After(p.Wait, func() { l.setQueued(l.queued - 1) })
	}
	return p, ok
}

// Delivered runs the arrival half. It reports whether the buffer
// should reach the destination handler.
func (l *RTLinkCore) Delivered(data []byte) bool {
	return l.arrived(l.clk.Now(), l.clk.tracer, data)
}
