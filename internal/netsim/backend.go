package netsim

import (
	"math/rand"
	"time"

	"repro/internal/bufpool"
	"repro/internal/metrics"
)

// Backend is the substrate contract every layer above the links builds
// against: a clock, a seeded random source, one-shot and periodic
// timers, impaired point-to-point links with per-link metrics and trace
// identity, and a serialization point for external drivers.
//
// There is one virtual-time engine and one wall-clock core, each with
// two faces:
//
//   - *Sharded (this package): virtual clock, one deterministic event
//     store per shard run in parallel under lookahead windows. Nodes
//     hold per-node views of it; Exec is an inline call between runs.
//   - *Simulator (this package): the same engine with one shard and
//     one view, plus Step/Run/RunUntil for driving it event by event.
//     Everything runs single-threaded inside the event loop.
//   - channet.Network: RTClock (the engine's event store keyed by
//     wall deadlines, run by one dispatcher goroutine) carrying
//     packets in process as tagged events.
//   - udpnet.Network: RTClock with the same wire bytes framed over
//     real UDP sockets on loopback.
//
// Links on all four run each packet through the one impairment
// pipeline (linkCore.plan), which asks the link's fate source (Fates:
// its LinkConfig unless Port.Impair wrapped another around it) and
// applies the answers; only the carriage differs.
//
// The concurrency contract is the simulator's, generalized: protocol
// code always runs with the backend's internal lock held (trivially
// true on the simulator, a real mutex on the real-time backends), so
// protocols stay single-threaded and never lock anything themselves.
// External drivers — tests, the workload engine, anything outside a
// timer or delivery callback — must reach protocol state through Exec,
// and that includes Schedule/ScheduleTimer/Every, Timer.Stop, NewLink
// and Port sends. RunFor must only be called by the driver, never from
// a callback.
type Backend interface {
	// Name identifies the backend kind: "sim", "sharded", "chan" or
	// "udp".
	Name() string
	// Now returns the backend's time: virtual on the simulator,
	// wall-clock nanoseconds since construction on real-time backends.
	Now() Time
	// Rand is the backend-owned random source; protocol code must use
	// it (never the global source) so simulator runs stay deterministic.
	Rand() *rand.Rand
	// Schedule runs fn once after delay d (clamped to ≥ 0).
	Schedule(d time.Duration, fn func()) *Timer
	// ScheduleTimer is Schedule returning the Timer by value for
	// callers that re-arm into a long-lived struct field.
	ScheduleTimer(d time.Duration, fn func()) Timer
	// Every runs fn periodically until the Repeater is stopped.
	Every(interval time.Duration, fn func()) *Repeater
	// NewLink creates a unidirectional impaired link delivering to dst.
	// Links are named "link<n>" in creation order on every backend;
	// that name is both the metrics scope ("netsim/link<n>") and the
	// trace/pcap interface identity.
	NewLink(cfg LinkConfig, dst Handler) Port
	// RunFor lets the world evolve for d: virtual time on the
	// simulator, a wall-clock sleep on real-time backends.
	RunFor(d time.Duration)
	// Steps counts callbacks and deliveries executed so far — the
	// cross-backend progress metric behind events/sec.
	Steps() uint64
	// Exec runs fn holding the backend's lock — the only safe way for
	// an external driver to touch protocol state. On the simulator it
	// is an inline call. fn must not call Exec or RunFor.
	Exec(fn func())
	// SetTracer attaches (nil detaches) the causal tracer. Call before
	// traffic flows, or from inside Exec.
	SetTracer(t Tracer)
	// Tracer returns the attached tracer, or nil when tracing is off.
	Tracer() Tracer
	// Close releases backend resources (goroutines, sockets) and
	// suppresses any still-pending timers. Safe to call more than
	// once on every backend; a no-op on the simulator.
	Close() error
}

// Port is one direction of an impaired point-to-point channel — the
// send side of what *Link implements on the simulator. Its config is
// fixed at NewLink; what changes a frame's fate afterwards is a fate
// source installed with Impair. Buffer ownership follows the simulator
// contract on every backend: SendOwned takes ownership of the buffer;
// the destination handler owns what it is given; drops return buffers
// to the bufpool. Impairments never alias caller memory — any
// duplicate is deep-copied through CloneBuf, the Backend contract's
// single copy path.
type Port interface {
	// Name is the creation-order identity ("link0", "link1", ...).
	Name() string
	// Send copies data into a pooled buffer and transmits it.
	Send(data []byte)
	// SendOwned transmits data, taking ownership of the buffer.
	SendOwned(data []byte, ecn bool)
	// SetUp raises or cuts the link; down links count down_drop.
	SetUp(up bool)
	// Up reports whether the link is passing traffic.
	Up() bool
	// Impair wraps the link's fate source (see Fates): wrap gets the
	// current source and returns the one that decides from now on.
	Impair(wrap func(Fates) Fates)
	// Stats views the link counters (sent, delivered, lost, ...).
	Stats() metrics.View
}

// CloneBuf is the Backend contract's single deep-copy path: every
// packet duplication on every backend (simulator dup impairment,
// channel-network dup, udpnet dup) goes through it, so a duplicate can
// never alias the original buffer. The clone comes from the bufpool
// and follows the usual ownership rules.
func CloneBuf(data []byte) []byte {
	dup := bufpool.Get(len(data))
	copy(dup, data)
	return dup
}

// NewDuplexOn builds a symmetric bidirectional link on any backend,
// with the same config in each direction, delivering to the two
// handlers.
func NewDuplexOn(b Backend, cfg LinkConfig, toA, toB Handler) *Duplex {
	return &Duplex{AB: b.NewLink(cfg, toB), BA: b.NewLink(cfg, toA)}
}

// NewDuplexBetween builds a duplex whose endpoints may live on
// different node views of a sharded engine: each direction is created
// on its sender's backend and delivers into the receiver's shard via
// LinkOn. With ba == bb (or any non-sharded backend) it degenerates to
// NewDuplexOn, creating the same links in the same order.
func NewDuplexBetween(ba, bb Backend, cfg LinkConfig, toA, toB Handler) *Duplex {
	return &Duplex{AB: LinkOn(ba, cfg, toB, bb), BA: LinkOn(bb, cfg, toA, ba)}
}
