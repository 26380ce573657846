package datalink

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sublayer"
)

// MAC is the paper's alternative top sublayer for broadcast links:
// "broadcast links like 802.11 dispense with error recovery and do
// Media Access Control to guarantee that one sender at a time,
// eventually and fairly, gets access to the shared physical channel."
//
// This implementation is 1-persistent CSMA with binary exponential
// backoff over a netsim.Bus: sense the carrier, transmit when idle,
// and on collision retry after a random number of backoff slots with a
// doubling range. Frames carry destination and source station
// addresses so stations filter traffic on the shared medium.
type MAC struct {
	rt      sublayer.Runtime
	station *netsim.Station
	addr    byte
	slot    time.Duration
	// promiscuous receive: deliver every frame with addresses intact
	// (bridges).
	promisc func(dst, src byte, payload []byte)

	queue    [][]byte // dst-prefixed frames awaiting the medium
	sending  bool
	collided bool
	attempt  int
	m        macMetrics
}

// macMetrics counts medium-acquisition events.
type macMetrics struct {
	sent       metrics.Counter
	collisions metrics.Counter
	backoffs   metrics.Counter
	received   metrics.Counter
	filtered   metrics.Counter // frames addressed elsewhere
}

func (m *macMetrics) each(f func(string, metrics.Instrument)) {
	f("sent", &m.sent)
	f("collisions", &m.collisions)
	f("backoffs", &m.backoffs)
	f("received", &m.received)
	f("filtered", &m.filtered)
}

// Broadcast is the all-stations MAC address.
const Broadcast byte = 0xFF

const macHeaderLen = 2 // dst(1) src(1)

const maxBackoffExp = 10

// NewMAC attaches a station with the given address to the bus. The
// slot duration scales backoff delays; use roughly one maximum frame
// time.
func NewMAC(bus *netsim.Bus, addr byte, slot time.Duration, deliver func(p *sublayer.PDU)) *MAC {
	m := &MAC{addr: addr, slot: slot}
	m.station = bus.Attach(func(pkt *netsim.Packet) { m.onReceive(pkt, deliver) })
	m.station.OnCollision = m.onCollision
	return m
}

// NewPromiscuousMAC attaches a station that receives every frame on
// the medium, addresses included — the receive mode bridges need.
func NewPromiscuousMAC(bus *netsim.Bus, addr byte, slot time.Duration, recvAll func(dst, src byte, payload []byte)) *MAC {
	m := &MAC{addr: addr, slot: slot, promisc: recvAll}
	m.station = bus.Attach(func(pkt *netsim.Packet) { m.onReceive(pkt, nil) })
	m.station.OnCollision = m.onCollision
	return m
}

// forwardFrame queues a frame preserving its original source address —
// bridge transparency: hosts see each other's addresses, never the
// bridge's.
func (m *MAC) forwardFrame(dst, src byte, payload []byte) {
	frame := make([]byte, macHeaderLen+len(payload))
	frame[0], frame[1] = dst, src
	copy(frame[macHeaderLen:], payload)
	m.queue = append(m.queue, frame)
	m.try()
}

// Name implements sublayer.Sublayer.
func (m *MAC) Name() string { return "mac(csma)" }

// Service implements sublayer.Sublayer (T1).
func (m *MAC) Service() string {
	return "one sender at a time, eventually and fairly, gets the shared channel"
}

// Attach implements sublayer.Sublayer.
func (m *MAC) Attach(rt sublayer.Runtime) { m.rt = rt }

// Stats returns a view of the MAC counters (keys: sent, collisions,
// backoffs, received, filtered).
func (m *MAC) Stats() metrics.View { return metrics.ViewOf(m.m.each) }

// BindMetrics implements metrics.Instrumented.
func (m *MAC) BindMetrics(sc *metrics.Scope) { m.m.each(sc.Register) }

// SendTo queues a payload for a specific station. The generic
// HandleDown path broadcasts.
func (m *MAC) SendTo(dst byte, payload []byte) {
	frame := make([]byte, macHeaderLen+len(payload))
	frame[0], frame[1] = dst, m.addr
	copy(frame[macHeaderLen:], payload)
	m.queue = append(m.queue, frame)
	m.try()
}

// HandleDown implements sublayer.Sublayer; PDUs without explicit
// addressing are broadcast.
func (m *MAC) HandleDown(p *sublayer.PDU) { m.SendTo(Broadcast, p.Data) }

// HandleUp is unused: the MAC is the bottom of its stack and receives
// directly from the bus via its station callback.
func (m *MAC) HandleUp(p *sublayer.PDU) {}

// try transmits the head-of-queue frame if the medium allows.
func (m *MAC) try() {
	if m.sending || len(m.queue) == 0 {
		return
	}
	if m.station.Busy() {
		// 1-persistent: retry as soon as the medium could be free.
		m.rt.Schedule(m.slot/4+time.Duration(m.rt.Rand().Int63n(int64(m.slot/4)+1)), m.try)
		return
	}
	m.sending, m.collided = true, false
	frame := m.queue[0]
	m.station.Transmit(frame)
	// The bus resolves the busy period after the frame duration plus
	// propagation; check back one slot later.
	m.rt.Schedule(m.slot, m.settle)
}

func (m *MAC) settle() {
	if !m.sending {
		return
	}
	m.sending = false
	if m.collided {
		m.attempt++
		m.m.backoffs.Inc()
		exp := m.attempt
		if exp > maxBackoffExp {
			exp = maxBackoffExp
		}
		slots := m.rt.Rand().Int63n(1 << uint(exp))
		m.rt.Schedule(time.Duration(slots+1)*m.slot, m.try)
		return
	}
	// Success: frame is on the wire.
	m.m.sent.Inc()
	m.attempt = 0
	m.queue = m.queue[1:]
	m.try()
}

func (m *MAC) onCollision() {
	m.m.collisions.Inc()
	m.collided = true
}

func (m *MAC) onReceive(pkt *netsim.Packet, deliver func(p *sublayer.PDU)) {
	if len(pkt.Data) < macHeaderLen {
		return
	}
	dst, src := pkt.Data[0], pkt.Data[1]
	if m.promisc != nil {
		m.m.received.Inc()
		m.promisc(dst, src, pkt.Data[macHeaderLen:])
		return
	}
	if dst != Broadcast && dst != m.addr {
		m.m.filtered.Inc()
		return
	}
	m.m.received.Inc()
	deliver(&sublayer.PDU{Data: pkt.Data[macHeaderLen:]})
}
