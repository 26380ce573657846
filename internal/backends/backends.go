// Package backends constructs netsim substrate backends by name. It is
// the one registry mapping the user-facing backend selector ("sim",
// "chan", "udp") to a constructor, shared by the transport harness,
// the workload engine, the E15 soak and the examples — netsim itself
// cannot host it without importing its own implementations.
package backends

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/channet"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/udpnet"
)

// Backend kind names. Sim is the deterministic discrete-event
// simulator; Sharded its multi-core twin (select a shard count with
// "sharded:N", default 4); Chan the in-process channel network; UDP
// the loopback real-socket backend.
const (
	Sim     = "sim"
	Sharded = "sharded"
	Chan    = "chan"
	UDP     = "udp"
)

// DefaultShards is the shard count "sharded" implies when no ":N"
// suffix picks one.
const DefaultShards = 4

// Names lists every backend kind, sim first.
func Names() []string { return []string{Sim, Sharded, Chan, UDP} }

// New builds the named backend, seeded with seed. When reg is non-nil
// the backend registers its instruments under "netsim/..." — the same
// shape on every backend. The empty kind means Sim, so zero-valued
// configs keep their deterministic default.
func New(kind string, seed int64, reg *metrics.Registry) (netsim.Backend, error) {
	switch kind {
	case Sim, "":
		var opts []netsim.Option
		if reg != nil {
			opts = append(opts, netsim.WithMetrics(reg))
		}
		return netsim.NewSimulator(seed, opts...), nil
	case Chan:
		return channet.New(seed, reg), nil
	case UDP:
		return udpnet.New(seed, reg)
	default:
		if base, arg, ok := strings.Cut(kind, ":"); ok && base == Sharded {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("backends: bad shard count in %q (want sharded:N, N ≥ 1)", kind)
			}
			return netsim.NewSharded(seed, n, reg), nil
		}
		if kind == Sharded {
			return netsim.NewSharded(seed, DefaultShards, reg), nil
		}
		return nil, fmt.Errorf("backends: unknown backend %q (want sim, sharded[:N], chan or udp)", kind)
	}
}

// Realtime reports whether kind runs on the wall clock (everything but
// the simulator). Drivers use it to pick polling over virtual RunFor.
func Realtime(kind string) bool { return kind == Chan || kind == UDP }

// UDPAvailable reports whether the UDP backend can run here; soak jobs
// use it to skip gracefully where loopback sockets are forbidden.
func UDPAvailable() bool { return udpnet.Available() }
