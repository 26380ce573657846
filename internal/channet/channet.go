// Package channet is the in-process channel-network backend: the same
// netsim.Backend contract as the simulator, but with no virtual clock
// — packets are carried in wall-clock time, in the style of P2P-Park's
// sim.Network. There are no per-link goroutines or channels: each link
// is a netsim.RTLinkCore, so a packet's serializer release, arrival and
// any duplicate are tagged events in the embedded RTClock's event
// store, run by its one dispatcher goroutine when their deadlines pass.
// Reorder-delayed packets and duplicates are ordinary slots that
// in-order traffic can overtake, exactly as on the simulator.
//
// All protocol callbacks run on the dispatcher with the RTClock's
// mutex held, so stacks written for the simulator run unchanged;
// external drivers go through Exec.
package channet

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Network is the channel-network backend. Create with New, wire links
// with NewLink (or netsim.NewDuplexOn), and Close when done to stop
// the dispatcher.
type Network struct {
	*netsim.RTClock
}

// New builds a channel network seeded with seed. When reg is non-nil
// the backend registers the same "netsim/..." instruments the
// simulator does.
func New(seed int64, reg *metrics.Registry) *Network {
	return &Network{RTClock: netsim.NewRTClock("chan", seed, reg)}
}

// NewLink creates a unidirectional impaired link delivering to dst.
// Callers hold the backend lock.
func (n *Network) NewLink(cfg netsim.LinkConfig, dst netsim.Handler) netsim.Port {
	return netsim.NewRTLinkCore(n.RTClock, cfg, dst, nil)
}
