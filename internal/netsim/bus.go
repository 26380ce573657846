package netsim

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Bus models a shared broadcast medium (classic Ethernet segment or a
// radio channel) for the MAC sublayer experiments: all attached
// stations hear every transmission, simultaneous transmissions collide,
// and stations can carrier-sense the medium. Per the paper's data-link
// discussion, broadcast links "dispense with error recovery and do
// Media Access Control to guarantee that one sender at a time,
// eventually and fairly, gets access to the shared physical channel."
type Bus struct {
	sim      *Simulator
	rate     int64 // bits per second
	prop     time.Duration
	stations []*Station
	// busyUntil is when the medium goes idle; curStart is when the
	// current busy period began (carrier reaches other stations one
	// propagation delay later); collision tracks whether the period
	// contains overlapping transmissions.
	busyUntil Time
	curStart  Time
	collision bool
	// transmissions in the current busy period, delivered (or voided)
	// when it ends.
	inFlight []busTx
	m        busMetrics
}

type busTx struct {
	from *Station
	data []byte
}

// busMetrics counts medium-level outcomes.
type busMetrics struct {
	transmissions metrics.Counter
	collisions    metrics.Counter
	delivered     metrics.Counter
}

func (m *busMetrics) each(f func(string, metrics.Instrument)) {
	f("transmissions", &m.transmissions)
	f("collisions", &m.collisions)
	f("delivered", &m.delivered)
}

// Station is one attachment point on the bus.
type Station struct {
	bus  *Bus
	id   int
	recv Handler
	// OnCollision, if set, is invoked when a transmission this station
	// participated in collides (its backoff trigger).
	OnCollision func()
}

// NewBus creates a shared medium with the given serialization rate and
// propagation delay.
func (s *Simulator) NewBus(rateBps int64, prop time.Duration) *Bus {
	if rateBps <= 0 {
		panic("netsim: bus rate must be positive")
	}
	b := &Bus{sim: s, rate: rateBps, prop: prop}
	if s.eng.msc != nil {
		b.m.each(s.eng.msc.Sub(fmt.Sprintf("bus%d", s.busSeq)).Register)
	}
	s.busSeq++
	return b
}

// Attach adds a station delivering received frames to recv.
func (b *Bus) Attach(recv Handler) *Station {
	st := &Station{bus: b, id: len(b.stations), recv: recv}
	b.stations = append(b.stations, st)
	return st
}

// Stats returns a view of the bus counters (keys: transmissions,
// collisions, delivered).
func (b *Bus) Stats() metrics.View { return metrics.ViewOf(b.m.each) }

// Busy reports whether this station can hear a transmission on the
// medium. Carrier from a transmission that started less than one
// propagation delay ago has not yet reached the station, so the medium
// appears idle — the classic CSMA vulnerable window in which
// collisions happen.
func (st *Station) Busy() bool {
	b := st.bus
	now := b.sim.Now()
	if now >= b.busyUntil {
		return false
	}
	return now >= b.curStart+durTicks(b.prop)
}

// Transmit places a frame on the medium. If the medium is already busy
// the new transmission overlaps the ongoing one and the whole busy
// period is a collision: no station receives anything intelligible and
// every participating station's OnCollision fires when the period ends.
func (st *Station) Transmit(data []byte) {
	b := st.bus
	b.m.transmissions.Inc()
	now := b.sim.Now()
	txDur := Time(int64(len(data)) * 8 * int64(time.Second) / b.rate)
	end := now + txDur + durTicks(b.prop)

	if now < b.busyUntil {
		// Overlap: the busy period extends and is poisoned.
		b.collision = true
		if end > b.busyUntil {
			b.busyUntil = end
		}
		b.inFlight = append(b.inFlight, busTx{st, data})
		return
	}
	// Fresh busy period.
	b.busyUntil = end
	b.curStart = now
	b.collision = false
	b.inFlight = b.inFlight[:0]
	b.inFlight = append(b.inFlight, busTx{st, data})
	b.sim.ScheduleAt(end, func() { b.settle(end) })
}

// settle resolves a busy period at its (possibly extended) end time.
func (b *Bus) settle(scheduledEnd Time) {
	if b.busyUntil > scheduledEnd {
		// The period was extended by a colliding transmission; resolve
		// at the true end instead.
		b.sim.ScheduleAt(b.busyUntil, func() { b.settle(b.busyUntil) })
		return
	}
	txs := make([]busTx, len(b.inFlight))
	copy(txs, b.inFlight)
	b.inFlight = b.inFlight[:0]
	if b.collision {
		b.m.collisions.Inc()
		for _, tx := range txs {
			if tx.from.OnCollision != nil {
				tx.from.OnCollision()
			}
		}
		return
	}
	// Exactly one transmission: broadcast to every other station.
	tx := txs[0]
	for _, st := range b.stations {
		if st == tx.from {
			continue
		}
		b.m.delivered.Inc()
		st.recv(&Packet{Data: append([]byte(nil), tx.data...)})
	}
}
