package transport

import (
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Options is the one shared functional-option set for world and stack
// construction. It used to be three: netsim grew WithMetrics(registry),
// datalink grew its own WithMetrics, and the transports grew
// CC/metrics/tracer plumbing — all folded here so callers configure
// any backend, any stack, or a whole harness.New world with the same
// literals. Stack constructors accept them variadically:
//
//	sublayered.NewStack(sim, r, cfg, transport.WithCC("cubic"))
//	monolithic.NewStack(sim, r, cfg, transport.WithCC("cubic"))
//	datalink.NewStack(sim, "alice", cfg, transport.WithRegistry(reg))
//
// Prefer WithMetrics over the per-stack BindMetrics methods (those
// remain as the Stack interface's post-construction hook).
type Options struct {
	// CC selects a congestion controller by ccontrol registry name.
	// Empty keeps the stack config's choice (or the registry default).
	CC string
	// Metrics adopts the stack's instruments under this scope.
	Metrics *metrics.Scope
	// Registry, for constructors that derive their own scope layout
	// (harness worlds, datalink stacks, backends), is the registry to
	// derive it from. Metrics wins where both could apply.
	Registry *metrics.Registry
	// Tracer installs a causal packet tracer on the stack's backend.
	Tracer netsim.Tracer
}

// Option mutates Options — the functional-options pattern shared by
// both stack constructors.
type Option func(*Options)

// WithCC selects the congestion controller by ccontrol registry name.
func WithCC(name string) Option { return func(o *Options) { o.CC = name } }

// WithMetrics adopts the stack's instruments under sc.
func WithMetrics(sc *metrics.Scope) Option { return func(o *Options) { o.Metrics = sc } }

// WithRegistry hands the constructor a whole metrics registry to
// derive its scope layout from.
func WithRegistry(reg *metrics.Registry) Option {
	return func(o *Options) { o.Registry = reg }
}

// WithTracer installs tr on the stack's backend at construction.
func WithTracer(tr netsim.Tracer) Option { return func(o *Options) { o.Tracer = tr } }

// Collect folds opts into one Options value (for stack constructors).
func Collect(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}
