// Package faults is a seed-deterministic fault injector for the
// simulated network: it composes with the netsim event loop to drive
// time-varying failures — bursty loss (Gilbert–Elliott), link flaps,
// partitions, router pause/crash-restart, and data-plane blackholes —
// against any network.Topology.
//
// The repo's transports were only ever exercised under static, uniform
// impairments (netsim.LinkConfig.LossProb and friends). Real layered
// protocols break under failures that *change over time*: a burst of
// loss that outlives the retransmission backoff, a link that flaps
// while routing is reconverging, a router that restarts with empty
// state. This package turns the deterministic simulator into that
// adversary, in the spirit of simulator-centric compositional testing:
// every fault is an ordinary simulator event and every random choice
// comes from a seeded stream, so the same seed replays the same failure
// history byte for byte.
//
// Faults are described declaratively as a Script — a named list of
// timed Steps — and installed with Injector.Apply. Schedule randomness
// (flap times, Gilbert–Elliott dwells) comes from the injector's own
// RNG, never the simulator's. The per-frame verdicts of a bursty-loss
// or reorder window, though, are draws from the affected link's own
// stream (the window is a fate source over the link's, see
// netsim.Fates): while a window is open it replaces that link's loss
// or reorder draws, so the link's later draws follow from the script.
// Other links' streams are never touched.
package faults

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
)

// Injector schedules faults against one topology. Create with New,
// install schedules with Apply (or the imperative helpers), then run
// the simulation as usual.
type Injector struct {
	sim  netsim.Backend
	topo *network.Topology
	rng  *rand.Rand
	m    injMetrics
}

// injMetrics counts what the injector did to the world.
type injMetrics struct {
	linkCuts      metrics.Counter
	linkRestores  metrics.Counter
	partitions    metrics.Counter
	heals         metrics.Counter
	crashes       metrics.Counter
	restarts      metrics.Counter
	geTransitions metrics.Counter
	blackholes    metrics.Counter
	reorderWins   metrics.Counter
}

func (m *injMetrics) each(f func(string, metrics.Instrument)) {
	f("link_cuts", &m.linkCuts)
	f("link_restores", &m.linkRestores)
	f("partitions", &m.partitions)
	f("heals", &m.heals)
	f("crashes", &m.crashes)
	f("restarts", &m.restarts)
	f("ge_transitions", &m.geTransitions)
	f("blackholes", &m.blackholes)
	f("reorder_windows", &m.reorderWins)
}

// New builds an injector over topo with its own RNG seeded by seed.
// The RNG is deliberately separate from the simulator's: fault
// schedules and link impairments never share a draw sequence.
func New(sim netsim.Backend, topo *network.Topology, seed int64) *Injector {
	return &Injector{sim: sim, topo: topo, rng: rand.New(rand.NewSource(seed))}
}

// uniform draws a duration uniformly in [0, span).
func (inj *Injector) uniform(span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	return time.Duration(inj.rng.Int63n(int64(span)))
}

// BindMetrics adopts the injector's counters into sc (conventionally
// a "faults" scope). Nil is a no-op.
func (inj *Injector) BindMetrics(sc *metrics.Scope) { inj.m.each(sc.Register) }

// Stats returns a view of the injector counters (keys: link_cuts,
// link_restores, partitions, heals, crashes, restarts, ge_transitions,
// blackholes, reorder_windows).
func (inj *Injector) Stats() metrics.View { return metrics.ViewOf(inj.m.each) }

// sortedLinkKeys returns the topology's link keys in deterministic
// order. Map iteration order must never reach the event queue.
func (inj *Injector) sortedLinkKeys() [][2]network.Addr {
	keys := make([][2]network.Addr, 0, len(inj.topo.Links))
	for k := range inj.topo.Links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// duplex finds the duplex between a and b in either key order.
func (inj *Injector) duplex(a, b network.Addr) *netsim.Duplex {
	if d, ok := inj.topo.Links[[2]network.Addr{a, b}]; ok {
		return d
	}
	return inj.topo.Links[[2]network.Addr{b, a}]
}

// incident returns the duplexes touching addr, in deterministic order.
func (inj *Injector) incident(addr network.Addr) []*netsim.Duplex {
	var out []*netsim.Duplex
	for _, k := range inj.sortedLinkKeys() {
		if k[0] == addr || k[1] == addr {
			out = append(out, inj.topo.Links[k])
		}
	}
	return out
}

// crossing returns the duplexes with exactly one endpoint inside the
// node set, in deterministic order — the cut set of a partition.
func (inj *Injector) crossing(nodes []network.Addr) []*netsim.Duplex {
	in := make(map[network.Addr]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	var out []*netsim.Duplex
	for _, k := range inj.sortedLinkKeys() {
		if in[k[0]] != in[k[1]] {
			out = append(out, inj.topo.Links[k])
		}
	}
	return out
}

// CutLink schedules both directions of the a–b link down at offset at.
func (inj *Injector) CutLink(at time.Duration, a, b network.Addr) {
	inj.sim.Schedule(at, func() {
		if d := inj.duplex(a, b); d != nil {
			d.SetUp(false)
			inj.m.linkCuts.Inc()
		}
	})
}

// RestoreLink schedules the a–b link back up at offset at.
func (inj *Injector) RestoreLink(at time.Duration, a, b network.Addr) {
	inj.sim.Schedule(at, func() {
		if d := inj.duplex(a, b); d != nil {
			d.SetUp(true)
			inj.m.linkRestores.Inc()
		}
	})
}

// FlapLink cuts the a–b link at offset at and restores it downFor
// later. downFor <= 0 means the cut is permanent.
func (inj *Injector) FlapLink(at, downFor time.Duration, a, b network.Addr) {
	inj.CutLink(at, a, b)
	if downFor > 0 {
		inj.RestoreLink(at+downFor, a, b)
	}
}

// partition cuts every link crossing the node-set boundary at offset
// at, healing healFor later (healFor <= 0: permanent).
func (inj *Injector) partition(at, healFor time.Duration, nodes []network.Addr) {
	inj.sim.Schedule(at, func() {
		for _, d := range inj.crossing(nodes) {
			d.SetUp(false)
		}
		inj.m.partitions.Inc()
	})
	if healFor > 0 {
		inj.sim.Schedule(at+healFor, func() {
			for _, d := range inj.crossing(nodes) {
				d.SetUp(true)
			}
			inj.m.heals.Inc()
		})
	}
}

// outage takes addr off the network at offset at by cutting every
// incident link; upFor later the links return. When fresh is non-nil
// the outage is a crash-restart: the router comes back with a brand-new
// route computer (empty routing state) swapped in via SwapComputer, so
// reconvergence is from scratch — the paper's fungibility mechanism
// doubling as a crash model. A nil fresh models a pause (state kept).
func (inj *Injector) outage(at, upFor time.Duration, addr network.Addr, fresh func() network.RouteComputer) {
	inj.sim.Schedule(at, func() {
		for _, d := range inj.incident(addr) {
			d.SetUp(false)
		}
		inj.m.crashes.Inc()
	})
	if upFor <= 0 {
		return
	}
	inj.sim.Schedule(at+upFor, func() {
		if fresh != nil {
			if r := inj.topo.Routers[addr]; r != nil {
				r.SwapComputer(fresh())
			}
		}
		for _, d := range inj.incident(addr) {
			d.SetUp(true)
		}
		inj.m.restarts.Inc()
	})
}

// blackhole installs a drop-everything filter on addr's router at
// offset at and clears it clearFor later (clearFor <= 0: permanent).
func (inj *Injector) blackhole(at, clearFor time.Duration, addr network.Addr) {
	inj.sim.Schedule(at, func() {
		if r := inj.topo.Routers[addr]; r != nil {
			r.SetDropFilter(func(*network.Datagram) bool { return true })
			inj.m.blackholes.Inc()
		}
	})
	if clearFor > 0 {
		inj.sim.Schedule(at+clearFor, func() {
			if r := inj.topo.Routers[addr]; r != nil {
				r.SetDropFilter(nil)
			}
		})
	}
}

// overlay is one fault step's hold on one fate of a link: while on, it
// decides that fate (loss, else reordering) with probability p, drawing
// only when p > 0 as the link's own source does; while off, the source
// below decides. An overlay is never unwrapped, so the overlays on one
// link may close in any order.
type overlay struct {
	on, loss bool
	p        float64
}

// overlayFates is an overlay over one direction's fate source.
type overlayFates struct {
	netsim.Fates
	*overlay
}

func (f overlayFates) Lost(rng *rand.Rand) bool {
	if f.on && f.loss {
		return f.p > 0 && rng.Float64() < f.p
	}
	return f.Fates.Lost(rng)
}

func (f overlayFates) Late(rng *rand.Rand) bool {
	if f.on && !f.loss {
		return f.p > 0 && rng.Float64() < f.p
	}
	return f.Fates.Late(rng)
}

// open schedules w over both directions of the a–b link for [start,
// start+dur): the start event wraps their fate sources, turns w on and
// runs then; the end event turns w off. dur <= 0 leaves it on for good.
func (inj *Injector) open(a, b network.Addr, w *overlay, start, dur time.Duration, then func()) {
	d := inj.duplex(a, b)
	if d == nil {
		return
	}
	inj.sim.Schedule(start, func() {
		wrap := func(f netsim.Fates) netsim.Fates { return overlayFates{f, w} }
		d.AB.Impair(wrap)
		d.BA.Impair(wrap)
		w.on = true
		then()
	})
	if dur > 0 {
		inj.sim.Schedule(start+dur, func() { w.on = false })
	}
}

// randomFlaps draws n flap start times uniformly in [start, start+window)
// and a down duration uniformly in [minDown, maxDown] for each, from the
// injector's RNG. All draws happen at install time, in a fixed order,
// so the schedule is a pure function of the seed.
func (inj *Injector) randomFlaps(a, b network.Addr, start, window time.Duration, n int, minDown, maxDown time.Duration) {
	if maxDown < minDown {
		maxDown = minDown
	}
	for i := 0; i < n; i++ {
		at := start + inj.uniform(window)
		down := minDown + inj.uniform(maxDown-minDown+1)
		inj.FlapLink(at, down, a, b)
	}
}
