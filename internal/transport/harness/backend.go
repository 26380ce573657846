package harness

import (
	"repro/internal/backends"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Backend kind names, re-exported from the backend registry so most
// callers only import harness.
const (
	BackendSim  = backends.Sim
	BackendChan = backends.Chan
	BackendUDP  = backends.UDP
)

// NewBackend constructs a bare backend by kind — for callers wiring
// their own topologies. World builders use BuildWorld instead.
func NewBackend(kind string, seed int64, reg *metrics.Registry) (netsim.Backend, error) {
	return backends.New(kind, seed, reg)
}

// Realtime reports whether kind runs on the wall clock.
func Realtime(kind string) bool { return backends.Realtime(kind) }

// UDPAvailable reports whether the UDP backend can run here; callers
// skip gracefully where loopback sockets are forbidden.
func UDPAvailable() bool { return backends.UDPAvailable() }
