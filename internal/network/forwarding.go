package network

import "repro/internal/metrics"

// Forwarder is the data plane of Fig. 3: it holds the forwarding
// database (FIB) that route computation installs, and moves data
// datagrams hop by hop. Data packets never traverse the control
// sublayers — the paper's observation that control sublayers "provide
// information for the data plane that bypasses them."
type Forwarder struct {
	self Addr
	fib  map[Addr]Route
	m    forwardMetrics
}

// forwardMetrics counts data-plane outcomes.
type forwardMetrics struct {
	originated     metrics.Counter
	forwarded      metrics.Counter
	localDelivered metrics.Counter
	noRoute        metrics.Counter
	ttlExpired     metrics.Counter
	malformed      metrics.Counter
	blackholed     metrics.Counter
}

func (m *forwardMetrics) each(f func(string, metrics.Instrument)) {
	f("originated", &m.originated)
	f("forwarded", &m.forwarded)
	f("local_delivered", &m.localDelivered)
	f("no_route", &m.noRoute)
	f("ttl_expired", &m.ttlExpired)
	f("malformed", &m.malformed)
	f("blackholed", &m.blackholed)
}

// newForwarder is created by the Router.
func newForwarder(self Addr) *Forwarder {
	return &Forwarder{self: self, fib: make(map[Addr]Route)}
}

// Install replaces the FIB — the single T2 interface from route
// computation into the data plane.
func (f *Forwarder) Install(routes map[Addr]Route) {
	fib := make(map[Addr]Route, len(routes))
	for a, r := range routes {
		fib[a] = r
	}
	f.fib = fib
}

// Lookup returns the route toward dst.
func (f *Forwarder) Lookup(dst Addr) (Route, bool) {
	r, ok := f.fib[dst]
	return r, ok
}

// FIB returns a copy of the forwarding database.
func (f *Forwarder) FIB() map[Addr]Route {
	out := make(map[Addr]Route, len(f.fib))
	for a, r := range f.fib {
		out[a] = r
	}
	return out
}

// Stats returns a view of the data-plane counters (keys: originated,
// forwarded, local_delivered, no_route, ttl_expired, malformed,
// blackholed).
func (f *Forwarder) Stats() metrics.View { return metrics.ViewOf(f.m.each) }
