package network

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// NeighborTable is the neighbor-determination sublayer — the lowest
// control sublayer of Fig. 4, "because route computation needs a list
// of neighbors that is determined by handshake messages sent directly
// on the data link." It broadcasts hellos on every interface and
// expires neighbors that fall silent.
type NeighborTable struct {
	sim   netsim.Backend
	self  Addr
	cfg   NeighborConfig
	ports []Port
	costs []uint8
	// rows[i] is the neighbor learned on interface i, if any.
	rows []*Neighbor
	// onChange fires when a neighbor appears or disappears; route
	// computation subscribes (the narrow T2 interface between the two
	// control sublayers).
	onChange []func()
	m        neighborMetrics
}

// Neighbor is one adjacency.
type Neighbor struct {
	Addr     Addr
	If       int
	Cost     uint8 // our configured cost to reach it
	LastSeen netsim.Time
}

// NeighborConfig tunes the hello protocol.
type NeighborConfig struct {
	// HelloInterval is the period between hellos (default 1s). A
	// neighbor with no hello for 3.5 intervals expires.
	HelloInterval time.Duration
}

// neighborMetrics counts protocol events.
type neighborMetrics struct {
	hellosSent     metrics.Counter
	hellosReceived metrics.Counter
	ups            metrics.Counter
	downs          metrics.Counter
}

func (m *neighborMetrics) each(f func(string, metrics.Instrument)) {
	f("hellos_sent", &m.hellosSent)
	f("hellos_received", &m.hellosReceived)
	f("ups", &m.ups)
	f("downs", &m.downs)
}

func (c NeighborConfig) withDefaults() NeighborConfig {
	if c.HelloInterval <= 0 {
		c.HelloInterval = time.Second
	}
	return c
}

// newNeighborTable is created by the Router, which owns the ports.
func newNeighborTable(sim netsim.Backend, self Addr, cfg NeighborConfig) *NeighborTable {
	return &NeighborTable{sim: sim, self: self, cfg: cfg.withDefaults()}
}

// addPort registers interface i (called by Router.AddPort).
func (n *NeighborTable) addPort(p Port, cost uint8) int {
	n.ports = append(n.ports, p)
	n.costs = append(n.costs, cost)
	n.rows = append(n.rows, nil)
	return len(n.ports) - 1
}

// start begins the hello and expiry timers.
func (n *NeighborTable) start() {
	n.sim.Every(n.cfg.HelloInterval, func() {
		for i, p := range n.ports {
			n.m.hellosSent.Inc()
			p.Send(marshalHello(n.self, n.costs[i]), false)
		}
	})
	n.sim.Every(n.cfg.HelloInterval, n.expire)
	// Send the first round immediately rather than one interval in.
	n.sim.Schedule(0, func() {
		for i, p := range n.ports {
			n.m.hellosSent.Inc()
			p.Send(marshalHello(n.self, n.costs[i]), false)
		}
	})
}

// onHello processes a received hello on interface ifi.
func (n *NeighborTable) onHello(ifi int, data []byte) {
	sender, _, err := unmarshalHello(data)
	if err != nil {
		return
	}
	n.m.hellosReceived.Inc()
	row := n.rows[ifi]
	if row == nil || row.Addr != sender {
		n.rows[ifi] = &Neighbor{Addr: sender, If: ifi, Cost: n.costs[ifi], LastSeen: n.sim.Now()}
		n.m.ups.Inc()
		n.notify()
		return
	}
	row.LastSeen = n.sim.Now()
}

// expire drops neighbors past hold time.
func (n *NeighborTable) expire() {
	hold := netsim.Time((n.cfg.HelloInterval*3 + n.cfg.HelloInterval/2).Nanoseconds())
	changed := false
	for i, row := range n.rows {
		if row != nil && n.sim.Now()-row.LastSeen > hold {
			n.rows[i] = nil
			n.m.downs.Inc()
			changed = true
		}
	}
	if changed {
		n.notify()
	}
}

// Neighbors returns the current adjacency list, interface order.
func (n *NeighborTable) Neighbors() []Neighbor {
	var out []Neighbor
	for _, row := range n.rows {
		if row != nil {
			out = append(out, *row)
		}
	}
	return out
}

// Subscribe registers a change callback (T2 interface upward).
func (n *NeighborTable) Subscribe(fn func()) { n.onChange = append(n.onChange, fn) }

func (n *NeighborTable) notify() {
	for _, fn := range n.onChange {
		fn()
	}
}

// Stats returns a view of the hello-protocol counters (keys:
// hellos_sent, hellos_received, ups, downs).
func (n *NeighborTable) Stats() metrics.View { return metrics.ViewOf(n.m.each) }
