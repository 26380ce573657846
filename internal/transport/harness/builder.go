package harness

import (
	"repro/internal/backends"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/transport/monolithic"
	"repro/internal/transport/sublayered"
	"repro/internal/verify"
)

// Backend kind names, re-exported from the backend registry so most
// callers only import harness.
const (
	BackendSim     = backends.Sim
	BackendSharded = backends.Sharded
	BackendChan    = backends.Chan
	BackendUDP     = backends.UDP
)

// BackendNames lists every backend kind, sim first.
func BackendNames() []string { return backends.Names() }

// NewBackend constructs a bare backend by kind — for callers wiring
// their own topologies. World builders use New/BuildWorld instead.
func NewBackend(kind string, seed int64, reg *metrics.Registry) (netsim.Backend, error) {
	return backends.New(kind, seed, reg)
}

// Realtime reports whether kind runs on the wall clock.
func Realtime(kind string) bool { return backends.Realtime(kind) }

// UDPAvailable reports whether the UDP backend can run here; callers
// skip gracefully where loopback sockets are forbidden.
func UDPAvailable() bool { return backends.UDPAvailable() }

// Option configures New — the harness's half of the shared functional
// option set (topology and stack selection); transport-level knobs
// ride along through WithTransport.
type Option func(*WorldConfig)

// WithSeed sets the world seed.
func WithSeed(seed int64) Option {
	return func(c *WorldConfig) { c.Seed = seed }
}

// WithHops sets the line-topology length (routers on the path, ≥ 2).
func WithHops(n int) Option {
	return func(c *WorldConfig) { c.Hops = n }
}

// WithShards selects the sharded simulator backend with n shards —
// shorthand for the "sharded:N" backend kind.
func WithShards(n int) Option {
	return func(c *WorldConfig) { c.Backend = backends.ShardedKind(n) }
}

// WithPairs builds n disjoint client/server pairs in one world (E16
// scaling matrices). Simulator backends only.
func WithPairs(n int) Option {
	return func(c *WorldConfig) { c.Pairs = n }
}

// WithLink sets the per-hop link shape.
func WithLink(link netsim.LinkConfig) Option {
	return func(c *WorldConfig) { c.Link = link }
}

// WithStacks selects the client and server transport implementations.
func WithStacks(client, server Kind) Option {
	return func(c *WorldConfig) { c.Client, c.Server = client, server }
}

// WithSubConfig sets the sublayered stack's configuration.
func WithSubConfig(cfg sublayered.Config) Option {
	return func(c *WorldConfig) { c.SubCfg = cfg }
}

// WithMonoConfig sets the monolithic stack's configuration.
func WithMonoConfig(cfg monolithic.Config) Option {
	return func(c *WorldConfig) { c.MonoCfg = cfg }
}

// WithTracker attaches a verify.Tracker to both transports (E6).
func WithTracker(t *verify.Tracker) Option {
	return func(c *WorldConfig) { c.Tracker = t }
}

// WithTransport appends shared transport options (transport.WithCC,
// transport.WithRegistry, transport.WithTracer, ...) applied to both
// end hosts' stacks.
func WithTransport(opts ...transport.Option) Option {
	return func(c *WorldConfig) { c.Opts = append(c.Opts, opts...) }
}

// New is the single construction path for a two-host world: pick a
// backend kind ("sim", "sharded:N", "chan", "udp"), apply options, get
// a converged World in one call:
//
//	w := harness.New(harness.BackendUDP,
//	        harness.WithSeed(7),
//	        harness.WithStacks(harness.KindSublayeredNative, harness.KindSublayeredNative),
//	        harness.WithTransport(transport.WithCC("cubic"), transport.WithRegistry(reg)))
//	defer w.Close()
func New(backend string, opts ...Option) *World {
	cfg := WorldConfig{Backend: backend}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return BuildWorld(cfg)
}
