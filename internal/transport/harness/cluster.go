package harness

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
	"repro/internal/verify"
)

// ClusterConfig tunes BuildCluster, the N-host sibling of BuildWorld:
// where a World puts transports only on the two ends of a line, a
// Cluster puts one on every node — the substrate the application-layer
// overlays (internal/overlay, experiment E13) run on, where any member
// may dial any other.
type ClusterConfig struct {
	Seed int64
	// Backend selects the substrate ("sim" default, "sharded[:N]",
	// "chan", "udp"); the determinism gates only hold on the simulator
	// backends.
	Backend string
	// Nodes is the member count (≥ 2; default 8). Three or more nodes
	// are wired as a ring 1–2–…–N–1, so a single member outage (the
	// churn model's RouterPause) degrades paths without severing the
	// rest of the membership; two nodes degenerate to a single link.
	Nodes int
	// Link is the per-hop link shape. A zero Link defaults to 2ms
	// delay, 4 Mbps, queue 64 — nonzero delay matters: zero-delay
	// links have no lookahead, which collapses a sharded engine to one
	// shard and makes every overlay round trip measure as 0s.
	Link netsim.LinkConfig
	// Kind selects the transport implementation every member runs.
	Kind Kind
	// Contracts, when non-nil, is called once per sublayered member and
	// the returned checker is wired into that member's stack — one
	// checker per host, so on a sharded engine no checker is ever
	// written from two shards. Ignored for monolithic members.
	Contracts func(network.Addr) *verify.Checker
	// Metrics, when non-nil, adopts every instrument in the cluster
	// under the same layout BuildWorld uses ("netsim/...",
	// "n<addr>/network/...", "n<addr>/transport/...").
	Metrics *metrics.Registry
}

// ClusterHost is one member: its address, its transport stack, and the
// backend its events run on (the per-node shard view on a sharded
// engine, the cluster backend otherwise).
type ClusterHost struct {
	Addr  network.Addr
	Stack transport.Stack
	B     netsim.Backend
}

// Cluster is an N-member world with a transport stack on every node.
type Cluster struct {
	Sim     netsim.Backend
	Topo    *network.Topology
	Backend string
	// Hosts is sorted by address (1..N).
	Hosts []ClusterHost
	// Checkers holds the per-host contract checkers handed out by
	// ClusterConfig.Contracts, keyed by member address.
	Checkers map[network.Addr]*verify.Checker
}

// Exec runs fn holding the backend lock (inline on the simulator).
func (c *Cluster) Exec(fn func()) { c.Sim.Exec(fn) }

// Close releases the backend (goroutines, sockets).
func (c *Cluster) Close() error { return c.Sim.Close() }

// Host returns the member at addr, or nil.
func (c *Cluster) Host(addr network.Addr) *ClusterHost {
	i := int(addr) - 1
	if i < 0 || i >= len(c.Hosts) {
		return nil
	}
	return &c.Hosts[i]
}

// BuildCluster constructs the member ring on the selected backend,
// attaches one transport per node, and runs the control plane to
// convergence (virtually on the simulator, by polling the FIBs on the
// real-time backends) so overlay traffic never races route discovery.
func BuildCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes < 2 {
		cfg.Nodes = 8
	}
	if cfg.Link == (netsim.LinkConfig{}) {
		cfg.Link = netsim.LinkConfig{Delay: 2 * time.Millisecond, RateBps: 4_000_000, QueueLimit: 64}
	}
	b, err := NewBackend(cfg.Backend, cfg.Seed, cfg.Metrics)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	rt := Realtime(cfg.Backend)
	cl := &Cluster{Sim: b, Backend: cfg.Backend, Checkers: make(map[network.Addr]*verify.Checker)}
	b.Exec(func() {
		cl.Topo = buildTopology(b, rt, ringEdges(cfg.Nodes, cfg.Link), cfg.Link, cfg.Metrics)
		for i := 1; i <= cfg.Nodes; i++ {
			addr := network.Addr(i)
			hb := cl.Topo.Backend(addr)
			var wcfg WorldConfig
			if cfg.Kind != KindMonolithic && cfg.Contracts != nil {
				ck := cfg.Contracts(addr)
				cl.Checkers[addr] = ck
				wcfg.SubCfg.Contracts = ck
			}
			st := buildTransport(cfg.Kind, hb, cl.Topo.Routers[addr], wcfg, hostScope(cfg.Metrics, i))
			cl.Hosts = append(cl.Hosts, ClusterHost{Addr: addr, Stack: st, B: hb})
		}
	})
	members := make([]network.Addr, len(cl.Hosts))
	for i, h := range cl.Hosts {
		members[i] = h.Addr
	}
	converge(b, cl.Topo, members)
	return cl
}

// ringEdges is the member ring 1–2–…–nodes–1 over link. Per-edge
// delays are staggered by a small deterministic skew, and the
// ring-closing edge costs 2 so the cycle's total cost is odd. Both
// choices serve cross-engine determinism on a topology with cycles:
// distinct arc costs mean route selection never hits an equal-cost
// tie, and distinct delays mean deliveries from two neighbors never
// share an arrival tick — in either case the tie-break would fall to
// event order details that sim and the sharded engine resolve
// differently.
func ringEdges(nodes int, link netsim.LinkConfig) []network.Edge {
	edgeLink := func(i int) *netsim.LinkConfig {
		lc := link
		lc.Delay += time.Duration(i) * 17 * time.Microsecond
		return &lc
	}
	var edges []network.Edge
	for i := 1; i < nodes; i++ {
		edges = append(edges, network.Edge{A: network.Addr(i), B: network.Addr(i + 1), Cost: 1, Link: edgeLink(i - 1)})
	}
	if nodes >= 3 {
		// Close the ring: member outages degrade paths instead of
		// bisecting the membership.
		edges = append(edges, network.Edge{A: network.Addr(nodes), B: 1, Cost: 2, Link: edgeLink(nodes - 1)})
	}
	return edges
}
