// Package channet is the in-process channel-network backend: the same
// netsim.Backend contract as the simulator, but with no virtual clock —
// goroutines and real time.Timers carry the packets, in the style of
// P2P-Park's sim.Network. Each link owns a FIFO delivery channel
// drained by a goroutine that sleeps until a packet's due time;
// reorder-delayed packets and duplicates travel out-of-band through
// time.AfterFunc so in-order traffic can overtake them, exactly as on
// the simulator.
//
// All protocol callbacks are serialized by the embedded RTClock's
// mutex, so stacks written for the simulator run unchanged; external
// drivers go through Exec.
package channet

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Network is the channel-network backend. Create with New, wire links
// with NewLink (or netsim.NewDuplexOn), and Close when done to stop
// the delivery goroutines.
type Network struct {
	*netsim.RTClock
	links []*link
}

// New builds a channel network seeded with seed. When reg is non-nil
// the backend registers the same "netsim/..." instruments the
// simulator does.
func New(seed int64, reg *metrics.Registry) *Network {
	return &Network{RTClock: netsim.NewRTClock("chan", seed, reg)}
}

// NewLink creates a unidirectional impaired link delivering to dst and
// starts its delivery goroutine.
func (n *Network) NewLink(cfg netsim.LinkConfig, dst netsim.Handler) netsim.Port {
	if dst == nil {
		panic("channet: NewLink with nil destination")
	}
	l := &link{
		RTLinkCore: netsim.NewRTLinkCore(n.RTClock, cfg),
		clk:        n.RTClock,
		dst:        dst,
		ch:         make(chan entry, 1024),
		done:       make(chan struct{}),
	}
	n.links = append(n.links, l)
	go l.run()
	return l
}

// Close suppresses all pending timers and stops every link's delivery
// goroutine. Safe to call more than once.
func (n *Network) Close() error {
	err := n.RTClock.Close()
	for _, l := range n.links {
		close(l.done)
	}
	n.links = nil
	return err
}

// entry is one in-order packet waiting in a link's delivery channel.
type entry struct {
	data []byte
	ecn  bool
	due  time.Time
}

// link is one unidirectional channel-network link: the shared link
// core (which also supplies the Port accessors) plus a FIFO channel and
// its drainer.
type link struct {
	*netsim.RTLinkCore
	clk  *netsim.RTClock
	dst  netsim.Handler
	ch   chan entry
	done chan struct{}
}

// Send copies data into a pooled buffer and transmits it.
func (l *link) Send(data []byte) { l.SendOwned(l.Ingest(data), false) }

// SendOwned transmits data, taking ownership of the buffer. Callers
// hold the backend lock (protocol code always does).
func (l *link) SendOwned(data []byte, ecn bool) {
	plan, ok := l.PlanSend(data, ecn)
	if !ok {
		return
	}
	due := time.Now().Add(plan.Delay)
	l.enqueue(data, plan.ECN, due, plan.Late)
	if plan.Dup {
		// The duplicate trails by 1µs and goes out-of-band: its copy
		// already exists, so FIFO order is not owed to it.
		l.enqueue(plan.DupData, plan.ECN, due.Add(time.Microsecond), true)
	}
}

// enqueue routes one packet to its carrier: the FIFO channel for
// in-order traffic, a standalone timer for reorder-delayed packets and
// duplicates (so the channel's FIFO traffic can overtake them). A full
// channel degrades to the timer path rather than blocking under the
// backend lock.
func (l *link) enqueue(data []byte, ecn bool, due time.Time, outOfBand bool) {
	if !outOfBand {
		select {
		case l.ch <- entry{data: data, ecn: ecn, due: due}:
			return
		default:
		}
	}
	l.clk.After(time.Until(due), func() { l.deliver(data, ecn) })
}

// run drains the FIFO channel, sleeping until each packet's due time.
func (l *link) run() {
	for {
		select {
		case <-l.done:
			return
		case e := <-l.ch:
			if d := time.Until(e.due); d > 0 {
				time.Sleep(d)
			}
			l.clk.ExecStep(func() { l.deliver(e.data, e.ecn) })
		}
	}
}

// deliver runs the arrival half under the backend lock.
func (l *link) deliver(data []byte, ecn bool) {
	if l.Delivered(data) {
		l.dst(&netsim.Packet{Data: data, ECN: ecn})
	}
}
