package datalink

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sublayer"
)

// Bridge is a transparent learning bridge between shared-medium
// segments — the "interposition of bridging" the paper cites as data
// link complexity growth (§1). It attaches one MAC station per
// segment, learns which segment each source address lives on, and
// forwards frames whose destination is elsewhere (flooding unknowns
// and broadcasts). Hosts need no configuration; the bridge is
// invisible at the MAC service interface, which is what makes it an
// intra-layer mechanism rather than a new layer.
type Bridge struct {
	sim   *netsim.Simulator
	ports []*MAC
	// table maps a source address to the port index it was learned on.
	table map[byte]int
	m     bridgeMetrics
}

// bridgeMetrics counts bridge decisions.
type bridgeMetrics struct {
	learned   metrics.Counter
	forwarded metrics.Counter
	flooded   metrics.Counter
	filtered  metrics.Counter // destination on the arrival segment: no forward
}

func (m *bridgeMetrics) each(f func(string, metrics.Instrument)) {
	f("learned", &m.learned)
	f("forwarded", &m.forwarded)
	f("flooded", &m.flooded)
	f("filtered", &m.filtered)
}

// NewBridge creates a bridge across the given buses. The bridge's
// stations use the reserved address 0xFE and a promiscuous receive
// path (bridges see all frames on a shared medium).
func NewBridge(sim *netsim.Simulator, slot time.Duration, buses ...*netsim.Bus) *Bridge {
	b := &Bridge{sim: sim, table: make(map[byte]int)}
	for i, bus := range buses {
		idx := i
		m := NewPromiscuousMAC(bus, 0xFE, slot, func(dst, src byte, payload []byte) {
			b.onFrame(idx, dst, src, payload)
		})
		// Give the MAC a timer context via a minimal stack.
		sublayer.MustNew(sim, bridgePortName(idx), m)
		b.ports = append(b.ports, m)
	}
	return b
}

func bridgePortName(i int) string {
	return "bridge-port-" + string(rune('a'+i))
}

// Stats returns a view of the bridge counters (keys: learned,
// forwarded, flooded, filtered).
func (b *Bridge) Stats() metrics.View { return metrics.ViewOf(b.m.each) }

// BindMetrics implements metrics.Instrumented.
func (b *Bridge) BindMetrics(sc *metrics.Scope) { b.m.each(sc.Register) }

// onFrame applies the classic learn-then-forward algorithm.
func (b *Bridge) onFrame(port int, dst, src byte, payload []byte) {
	if _, known := b.table[src]; !known {
		b.m.learned.Inc()
	}
	b.table[src] = port

	if dst != Broadcast {
		if outPort, known := b.table[dst]; known {
			if outPort == port {
				b.m.filtered.Inc() // already on the right segment
				return
			}
			b.m.forwarded.Inc()
			b.ports[outPort].forwardFrame(dst, src, payload)
			return
		}
	}
	// Broadcast or unknown destination: flood to every other segment.
	b.m.flooded.Inc()
	for i, m := range b.ports {
		if i == port {
			continue
		}
		m.forwardFrame(dst, src, payload)
	}
}
