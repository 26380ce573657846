package network

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// LinkState is OSPF/IS-IS-style route computation: each router floods a
// link-state packet (LSP) describing its adjacencies; every router
// holds the full topology database and runs Dijkstra.
type LinkState struct {
	env RoutingEnv
	cfg LSConfig

	seq    uint32
	db     map[Addr]*lsp
	timers []*netsim.Repeater
	m      lsMetrics
	// routesCache is the last SPF result, served by Routes.
	routesCache map[Addr]Route
}

type lsp struct {
	origin    Addr
	seq       uint32
	neighbors []lsNeighbor
	received  netsim.Time
}

type lsNeighbor struct {
	addr Addr
	cost uint8
}

// LSConfig tunes the protocol.
type LSConfig struct {
	// RefreshInterval re-floods our own LSP (default 10s).
	RefreshInterval time.Duration
}

// lsMaxAge purges foreign LSPs not refreshed for this long.
const lsMaxAge = 30 * time.Second

// lsMetrics counts protocol events.
type lsMetrics struct {
	lspsOriginated metrics.Counter
	lspsFlooded    metrics.Counter
	lspsReceived   metrics.Counter
	spfRuns        metrics.Counter
}

func (m *lsMetrics) each(f func(string, metrics.Instrument)) {
	f("lsps_originated", &m.lspsOriginated)
	f("lsps_flooded", &m.lspsFlooded)
	f("lsps_received", &m.lspsReceived)
	f("spf_runs", &m.spfRuns)
}

func (c LSConfig) withDefaults() LSConfig {
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 10 * time.Second
	}
	return c
}

// NewLinkState returns a link-state route computer.
func NewLinkState(cfg LSConfig) *LinkState {
	return &LinkState{cfg: cfg.withDefaults(), db: make(map[Addr]*lsp)}
}

// Name implements RouteComputer.
func (l *LinkState) Name() string { return "link-state" }

// Attach implements RouteComputer.
func (l *LinkState) Attach(env RoutingEnv) { l.env = env }

// Start implements RouteComputer.
func (l *LinkState) Start() {
	l.timers = append(l.timers,
		l.env.Sim().Every(l.cfg.RefreshInterval, func() {
			l.originate()
			l.age()
		}))
	l.env.Sim().Schedule(0, l.originate)
}

// Stop implements RouteComputer.
func (l *LinkState) Stop() {
	for _, t := range l.timers {
		t.Stop()
	}
	l.timers = nil
}

// Stats returns a view of the protocol counters (keys:
// lsps_originated, lsps_flooded, lsps_received, spf_runs).
func (l *LinkState) Stats() metrics.View { return metrics.ViewOf(l.m.each) }

// BindMetrics implements metrics.Instrumented.
func (l *LinkState) BindMetrics(sc *metrics.Scope) { l.m.each(sc.Register) }

// OnNeighborChange implements RouteComputer: re-originate and recompute.
func (l *LinkState) OnNeighborChange() {
	l.originate()
}

// originate builds our own LSP from the neighbor table, stores it, and
// floods it on every interface.
func (l *LinkState) originate() {
	l.seq++
	l.m.lspsOriginated.Inc()
	ns := l.env.Neighbors()
	p := &lsp{origin: l.env.Self(), seq: l.seq, received: l.env.Sim().Now()}
	for _, n := range ns {
		p.neighbors = append(p.neighbors, lsNeighbor{n.Addr, n.Cost})
	}
	l.db[p.origin] = p
	l.flood(p, -1)
	l.spf()
}

// flood sends an LSP on every interface except the one it arrived on.
func (l *LinkState) flood(p *lsp, exceptIf int) {
	body := marshalLSP(p)
	for _, n := range l.env.Neighbors() {
		if n.If == exceptIf {
			continue
		}
		l.m.lspsFlooded.Inc()
		l.env.SendRouting(n.If, body)
	}
}

// OnPacket implements RouteComputer: accept newer LSPs, flood onward.
func (l *LinkState) OnPacket(ifi int, sender Addr, body []byte) {
	p, err := unmarshalLSP(body)
	if err != nil {
		return
	}
	l.m.lspsReceived.Inc()
	cur, ok := l.db[p.origin]
	if ok && cur.seq >= p.seq {
		return // old news
	}
	p.received = l.env.Sim().Now()
	l.db[p.origin] = p
	l.flood(p, ifi)
	l.spf()
}

// age purges stale foreign LSPs.
func (l *LinkState) age() {
	cut := netsim.Time(lsMaxAge.Nanoseconds())
	changed := false
	for origin, p := range l.db {
		if origin == l.env.Self() {
			continue
		}
		if l.env.Sim().Now()-p.received > cut {
			delete(l.db, origin)
			changed = true
		}
	}
	if changed {
		l.spf()
	}
}

// spf runs Dijkstra over the database and installs the FIB. An edge
// u→v is used only if both u's and v's LSPs list each other (the
// standard two-way connectivity check), with u's advertised cost.
func (l *LinkState) spf() {
	l.m.spfRuns.Inc()
	self := l.env.Self()

	type node struct {
		dist int
		prev Addr
		done bool
	}
	nodes := map[Addr]*node{self: {dist: 0}}
	edge := func(u, v Addr) (int, bool) {
		pu, ok := l.db[u]
		if !ok {
			return 0, false
		}
		pv, ok := l.db[v]
		if !ok {
			return 0, false
		}
		var cost int = -1
		for _, n := range pu.neighbors {
			if n.addr == v {
				cost = int(n.cost)
				break
			}
		}
		if cost < 0 {
			return 0, false
		}
		for _, n := range pv.neighbors {
			if n.addr == u {
				return cost, true
			}
		}
		return 0, false
	}
	// Dijkstra with deterministic tie-breaking by address.
	for {
		var u Addr
		best := -1
		var uNode *node
		var addrs []Addr
		for a := range nodes {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			n := nodes[a]
			if n.done {
				continue
			}
			if best < 0 || n.dist < best {
				best, u, uNode = n.dist, a, n
			}
		}
		if best < 0 {
			break
		}
		uNode.done = true
		p, ok := l.db[u]
		if !ok {
			continue
		}
		for _, nb := range p.neighbors {
			c, ok := edge(u, nb.addr)
			if !ok {
				continue
			}
			alt := uNode.dist + c
			v, ok := nodes[nb.addr]
			if !ok {
				nodes[nb.addr] = &node{dist: alt, prev: u}
			} else if !v.done && (alt < v.dist || (alt == v.dist && u < v.prev)) {
				v.dist, v.prev = alt, u
			}
		}
	}

	// Extract first hops and map them to interfaces via the neighbor
	// sublayer (T2: that is the only way the computer knows links).
	ifFor := make(map[Addr]int)
	for _, n := range l.env.Neighbors() {
		ifFor[n.Addr] = n.If
	}
	routes := make(map[Addr]Route)
	for dst, n := range nodes {
		if dst == self {
			routes[dst] = Route{Dst: dst, NextHop: dst, If: -1, Metric: 0}
			continue
		}
		// Walk predecessors back to the first hop.
		hop := dst
		for nodes[hop].prev != self {
			hop = nodes[hop].prev
		}
		ifi, ok := ifFor[hop]
		if !ok {
			continue
		}
		routes[dst] = Route{Dst: dst, NextHop: hop, If: ifi, Metric: n.dist}
	}
	l.routesCache = routes
	l.env.InstallFIB(routes)
}

// Routes implements RouteComputer.
func (l *LinkState) Routes() map[Addr]Route {
	out := make(map[Addr]Route, len(l.routesCache))
	for a, r := range l.routesCache {
		out[a] = r
	}
	return out
}

func marshalLSP(p *lsp) []byte {
	out := make([]byte, 8+3*len(p.neighbors))
	out[0] = routingProtoLS
	binary.BigEndian.PutUint16(out[1:3], uint16(p.origin))
	binary.BigEndian.PutUint32(out[3:7], p.seq)
	out[7] = byte(len(p.neighbors))
	at := 8
	for _, n := range p.neighbors {
		binary.BigEndian.PutUint16(out[at:at+2], uint16(n.addr))
		out[at+2] = n.cost
		at += 3
	}
	return out
}

func unmarshalLSP(body []byte) (*lsp, error) {
	if len(body) < 8 || body[0] != routingProtoLS {
		return nil, errTruncated
	}
	p := &lsp{
		origin: Addr(binary.BigEndian.Uint16(body[1:3])),
		seq:    binary.BigEndian.Uint32(body[3:7]),
	}
	n := int(body[7])
	if len(body) < 8+3*n {
		return nil, errTruncated
	}
	at := 8
	for i := 0; i < n; i++ {
		p.neighbors = append(p.neighbors, lsNeighbor{
			addr: Addr(binary.BigEndian.Uint16(body[at : at+2])),
			cost: body[at+2],
		})
		at += 3
	}
	return p, nil
}
