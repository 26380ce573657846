package network

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// DistanceVector is RIP-style route computation: periodically advertise
// the full distance table to each neighbor, with split horizon and
// poison reverse; metric 16 is unreachable.
type DistanceVector struct {
	env RoutingEnv
	cfg DVConfig

	table  map[Addr]*dvEntry
	timers []*netsim.Repeater
	trig   *netsim.Timer
	m      dvMetrics
}

type dvEntry struct {
	route    Route
	poisoned netsim.Time // when the route went to Infinity (for GC)
}

// DVConfig tunes the protocol.
type DVConfig struct {
	// AdvertiseInterval is the periodic full-table advertisement period
	// (default 2s). A poisoned route is removed after three of them, and
	// triggered updates are held down for a tenth of one.
	AdvertiseInterval time.Duration
}

// dvMetrics counts protocol events.
type dvMetrics struct {
	advertsSent     metrics.Counter
	advertsReceived metrics.Counter
	triggeredSent   metrics.Counter
	routeChanges    metrics.Counter
}

func (m *dvMetrics) each(f func(string, metrics.Instrument)) {
	f("adverts_sent", &m.advertsSent)
	f("adverts_received", &m.advertsReceived)
	f("triggered_sent", &m.triggeredSent)
	f("route_changes", &m.routeChanges)
}

func (c DVConfig) withDefaults() DVConfig {
	if c.AdvertiseInterval <= 0 {
		c.AdvertiseInterval = 2 * time.Second
	}
	return c
}

// NewDistanceVector returns a distance-vector route computer.
func NewDistanceVector(cfg DVConfig) *DistanceVector {
	return &DistanceVector{cfg: cfg.withDefaults(), table: make(map[Addr]*dvEntry)}
}

// Name implements RouteComputer.
func (d *DistanceVector) Name() string { return "distance-vector" }

// Attach implements RouteComputer.
func (d *DistanceVector) Attach(env RoutingEnv) {
	d.env = env
	d.table[env.Self()] = &dvEntry{route: Route{Dst: env.Self(), NextHop: env.Self(), If: -1, Metric: 0}}
}

// Start implements RouteComputer.
func (d *DistanceVector) Start() {
	d.timers = append(d.timers,
		d.env.Sim().Every(d.cfg.AdvertiseInterval, func() {
			d.advertise(false)
			d.gc()
		}))
	d.env.Sim().Schedule(0, func() { d.advertise(false) })
}

// Stop implements RouteComputer.
func (d *DistanceVector) Stop() {
	for _, t := range d.timers {
		t.Stop()
	}
	d.timers = nil
	if d.trig != nil {
		d.trig.Stop()
	}
}

// Stats returns a view of the protocol counters (keys: adverts_sent,
// adverts_received, triggered_sent, route_changes).
func (d *DistanceVector) Stats() metrics.View { return metrics.ViewOf(d.m.each) }

// BindMetrics implements metrics.Instrumented.
func (d *DistanceVector) BindMetrics(sc *metrics.Scope) { d.m.each(sc.Register) }

// OnNeighborChange implements RouteComputer: adopt direct routes to new
// neighbors, poison routes through vanished ones.
func (d *DistanceVector) OnNeighborChange() {
	alive := make(map[int]Neighbor)
	for _, n := range d.env.Neighbors() {
		alive[n.If] = n
	}
	changed := false
	// Poison everything routed through an interface whose neighbor is
	// gone.
	for _, e := range d.table {
		if e.route.If < 0 || e.route.Metric >= Infinity {
			continue
		}
		if _, ok := alive[e.route.If]; !ok {
			e.route.Metric = Infinity
			e.poisoned = d.env.Sim().Now()
			changed = true
		}
	}
	// Direct neighbor routes.
	for _, n := range alive {
		m := int(n.Cost)
		e, ok := d.table[n.Addr]
		if !ok || e.route.Metric > m {
			d.table[n.Addr] = &dvEntry{route: Route{Dst: n.Addr, NextHop: n.Addr, If: n.If, Metric: m}}
			changed = true
		}
	}
	if changed {
		d.m.routeChanges.Inc()
		d.install()
		d.trigger()
	}
}

// OnPacket implements RouteComputer: merge a neighbor's vector.
func (d *DistanceVector) OnPacket(ifi int, sender Addr, body []byte) {
	if len(body) < 1 || body[0] != routingProtoDV {
		return // another protocol's PDU (e.g. mid-swap link state)
	}
	body = body[1:]
	d.m.advertsReceived.Inc()
	// Find the adjacency to get the link cost; ignore vectors from
	// non-neighbors (stale or spoofed).
	var nb *Neighbor
	for _, n := range d.env.Neighbors() {
		if n.If == ifi && n.Addr == sender {
			n := n
			nb = &n
			break
		}
	}
	if nb == nil {
		return
	}
	changed := false
	for len(body) >= 3 {
		dst := Addr(binary.BigEndian.Uint16(body[0:2]))
		m := int(body[2])
		body = body[3:]
		if dst == d.env.Self() {
			continue
		}
		cand := m + int(nb.Cost)
		if cand > Infinity {
			cand = Infinity
		}
		e, ok := d.table[dst]
		switch {
		case !ok && cand < Infinity:
			d.table[dst] = &dvEntry{route: Route{Dst: dst, NextHop: sender, If: ifi, Metric: cand}}
			changed = true
		case ok && e.route.NextHop == sender && e.route.If == ifi && cand != e.route.Metric:
			// News from the current next hop is authoritative, better
			// or worse.
			e.route.Metric = cand
			if cand >= Infinity {
				e.poisoned = d.env.Sim().Now()
			}
			changed = true
		case ok && cand < e.route.Metric:
			e.route = Route{Dst: dst, NextHop: sender, If: ifi, Metric: cand}
			e.poisoned = 0
			changed = true
		}
	}
	if changed {
		d.m.routeChanges.Inc()
		d.install()
		d.trigger()
	}
}

// Routes implements RouteComputer.
func (d *DistanceVector) Routes() map[Addr]Route {
	out := make(map[Addr]Route, len(d.table))
	for a, e := range d.table {
		if e.route.Metric < Infinity {
			out[a] = e.route
		}
	}
	return out
}

// advertise sends the (split-horizon, poison-reverse) vector on every
// interface with a live neighbor.
func (d *DistanceVector) advertise(triggered bool) {
	// Advertise destinations in address order: the table is a map, and
	// letting its iteration order leak into wire bytes would make
	// same-seed runs diverge at the packet level (the byte-identity the
	// capture and trace gates check), even though routing outcomes
	// would not.
	dsts := make([]Addr, 0, len(d.table))
	for a := range d.table {
		dsts = append(dsts, a)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, n := range d.env.Neighbors() {
		body := make([]byte, 0, 1+3*len(d.table))
		body = append(body, routingProtoDV)
		for _, a := range dsts {
			e := d.table[a]
			m := e.route.Metric
			if e.route.If == n.If && e.route.Dst != d.env.Self() {
				m = Infinity // poison reverse
			}
			var rec [3]byte
			binary.BigEndian.PutUint16(rec[0:2], uint16(e.route.Dst))
			rec[2] = byte(m)
			body = append(body, rec[:]...)
		}
		if triggered {
			d.m.triggeredSent.Inc()
		} else {
			d.m.advertsSent.Inc()
		}
		d.env.SendRouting(n.If, body)
	}
}

// trigger schedules a batched triggered update one hold-down from now:
// a tenth of the advertisement interval (50 ms at 500 ms), inside RFC
// 2453 §3.10.1's 1/30–1/6 damping range. Changes during the hold-down
// ride the update already scheduled.
func (d *DistanceVector) trigger() {
	if d.trig != nil && d.trig.Active() {
		return
	}
	d.trig = d.env.Sim().Schedule(d.cfg.AdvertiseInterval/10, func() { d.advertise(true) })
}

// gc removes routes poisoned for longer than three advertisement
// periods.
func (d *DistanceVector) gc() {
	cut := netsim.Time(3 * d.cfg.AdvertiseInterval.Nanoseconds())
	for a, e := range d.table {
		if e.route.Metric >= Infinity && e.poisoned > 0 && d.env.Sim().Now()-e.poisoned > cut {
			delete(d.table, a)
		}
	}
}

func (d *DistanceVector) install() {
	d.env.InstallFIB(d.Routes())
}
