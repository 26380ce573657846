package network

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Topology is a convenience builder for multi-router simulations used
// by tests, benches and the subnet tool.
type Topology struct {
	Sim     netsim.Backend
	Routers map[Addr]*Router
	Links   map[[2]Addr]*netsim.Duplex
	// NodeB is each node's backend: on a sharded engine the per-node
	// shard view, otherwise Sim itself. Anything that wires extra
	// endpoints onto a node (transport stacks, extra ports) must use
	// that node's backend so its events land on the node's shard.
	NodeB map[Addr]netsim.Backend
	edges []Edge
}

// Backend returns the backend the given node runs on (Sim when the
// node is unknown).
func (t *Topology) Backend(a Addr) netsim.Backend {
	if b, ok := t.NodeB[a]; ok {
		return b
	}
	return t.Sim
}

// Edge is one bidirectional adjacency.
type Edge struct {
	A, B Addr
	Cost uint8
	// Link, when non-nil, overrides the topology-wide link shape for
	// this adjacency — heterogeneous delays, rates or loss on selected
	// hops (the cluster builder staggers per-edge delays with this so
	// deliveries from different neighbors never share an arrival tick).
	Link *netsim.LinkConfig
}

// BuildTopology constructs routers for every address appearing in
// edges, each with a route computer from mk, links them, and starts
// the control plane.
func BuildTopology(sim netsim.Backend, edges []Edge, link netsim.LinkConfig, ncfg NeighborConfig, mk func() RouteComputer) *Topology {
	t := &Topology{
		Sim:     sim,
		Routers: make(map[Addr]*Router),
		Links:   make(map[[2]Addr]*netsim.Duplex),
		NodeB:   make(map[Addr]netsim.Backend),
		edges:   edges,
	}
	// Assign nodes to backends first, in sorted address order. On a
	// sharded engine each node gets a view pinned to a contiguous shard
	// block (node i of n → shard i*s/n); the view creation order IS the
	// node's rank in the deterministic event-ordering key, so it must
	// depend only on the address set, never on the shard count or edge
	// order. Links with zero propagation delay cannot be cut points
	// (lookahead would be zero), so such worlds collapse to one shard.
	nodes := make(map[Addr]bool)
	for _, e := range edges {
		nodes[e.A], nodes[e.B] = true, true
	}
	addrs := make([]Addr, 0, len(nodes))
	for a := range nodes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	if sh, ok := sim.(netsim.Sharder); ok {
		s := sh.Shards()
		if link.Delay <= 0 {
			s = 1
		}
		for _, e := range edges {
			if e.Link != nil && e.Link.Delay <= 0 {
				s = 1
				break
			}
		}
		for i, a := range addrs {
			t.NodeB[a] = sh.NodeView(i * s / len(addrs))
		}
	} else {
		for _, a := range addrs {
			t.NodeB[a] = sim
		}
	}
	for _, a := range addrs {
		t.Routers[a] = NewRouter(t.NodeB[a], a, mk(), ncfg)
	}
	for _, e := range edges {
		lc := link
		if e.Link != nil {
			lc = *e.Link
		}
		t.Links[[2]Addr{e.A, e.B}] = ConnectRoutersOn(t.NodeB[e.A], t.NodeB[e.B], t.Routers[e.A], t.Routers[e.B], lc, e.Cost)
	}
	// Start in address order, not map order: the first hello round fires
	// at t=0 in start order, and hello impairment draws come from each
	// link's seeded stream, so start order is part of the deterministic
	// world. Map iteration here would make same-seed runs diverge.
	for _, a := range addrs {
		t.Routers[a].Start()
	}
	return t
}

// BindMetrics adopts every router's sublayer counters into reg under
// "n<addr>/network/...". Routers bind in address order so registration
// is deterministic.
func (t *Topology) BindMetrics(reg *metrics.Registry) {
	addrs := make([]Addr, 0, len(t.Routers))
	for a := range t.Routers {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		t.Routers[a].BindMetrics(reg.Scope(fmt.Sprintf("n%d", a)).Sub("network"))
	}
}

// CutLink takes the A–B link down (both directions).
func (t *Topology) CutLink(a, b Addr) bool {
	if d, ok := t.Links[[2]Addr{a, b}]; ok {
		d.SetUp(false)
		return true
	}
	if d, ok := t.Links[[2]Addr{b, a}]; ok {
		d.SetUp(false)
		return true
	}
	return false
}

// RestoreLink brings the A–B link back up.
func (t *Topology) RestoreLink(a, b Addr) bool {
	if d, ok := t.Links[[2]Addr{a, b}]; ok {
		d.SetUp(true)
		return true
	}
	if d, ok := t.Links[[2]Addr{b, a}]; ok {
		d.SetUp(true)
		return true
	}
	return false
}

// ReferenceDistances computes all-pairs shortest paths over the edge
// list with Floyd–Warshall — the ground truth that both route
// computers must converge to (experiment E2). Unreachable pairs are
// absent from the result.
func ReferenceDistances(edges []Edge) map[Addr]map[Addr]int {
	nodes := make(map[Addr]bool)
	for _, e := range edges {
		nodes[e.A], nodes[e.B] = true, true
	}
	dist := make(map[Addr]map[Addr]int)
	for a := range nodes {
		dist[a] = map[Addr]int{a: 0}
	}
	for _, e := range edges {
		c := int(e.Cost)
		if cur, ok := dist[e.A][e.B]; !ok || c < cur {
			dist[e.A][e.B] = c
			dist[e.B][e.A] = c
		}
	}
	for k := range nodes {
		for i := range nodes {
			dik, ok := dist[i][k]
			if !ok {
				continue
			}
			for j := range nodes {
				dkj, ok := dist[k][j]
				if !ok {
					continue
				}
				if cur, ok := dist[i][j]; !ok || dik+dkj < cur {
					dist[i][j] = dik + dkj
				}
			}
		}
	}
	return dist
}

// RandomConnectedGraph generates n nodes with a random spanning tree
// plus extra random edges, unit-ish random costs — the workload of the
// E2 sweep.
func RandomConnectedGraph(rng *rand.Rand, n, extraEdges int, maxCost int) []Edge {
	if maxCost < 1 {
		maxCost = 1
	}
	var edges []Edge
	seen := make(map[[2]Addr]bool)
	add := func(a, b Addr) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := [2]Addr{a, b}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, Edge{A: a, B: b, Cost: uint8(1 + rng.Intn(maxCost))})
	}
	// Random spanning tree: attach each node to a random earlier one.
	for i := 2; i <= n; i++ {
		add(Addr(i), Addr(1+rng.Intn(i-1)))
	}
	for i := 0; i < extraEdges; i++ {
		add(Addr(1+rng.Intn(n)), Addr(1+rng.Intn(n)))
	}
	return edges
}
