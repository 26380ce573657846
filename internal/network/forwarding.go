package network

import "repro/internal/metrics"

// Forwarder is the data plane of Fig. 3: it holds the forwarding
// database (FIB) that route computation installs, and moves data
// datagrams hop by hop. Data packets never traverse the control
// sublayers — the paper's observation that control sublayers "provide
// information for the data plane that bypasses them."
type Forwarder struct {
	self Addr
	// fib is indexed by destination address: addresses are small and
	// dense, so a lookup per hop is an index, not a map probe.
	fib []fibEntry
	m   forwardMetrics
}

// fibEntry is one FIB slot; ok marks an installed route.
type fibEntry struct {
	r  Route
	ok bool
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
	return &Forwarder{self: self}
}

// Install replaces the FIB — the single T2 interface from route
// computation into the data plane.
func (f *Forwarder) Install(routes map[Addr]Route) {
	n := 0
	for a := range routes {
		n = max(n, int(a)+1)
	}
	fib := make([]fibEntry, n)
	for a, r := range routes {
		fib[a] = fibEntry{r, true}
	}
	f.fib = fib
}

// Lookup returns the route toward dst.
func (f *Forwarder) Lookup(dst Addr) (Route, bool) {
	if int(dst) < len(f.fib) {
		e := &f.fib[dst]
		return e.r, e.ok
	}
	return Route{}, false
}

// FIB returns a copy of the forwarding database.
func (f *Forwarder) FIB() map[Addr]Route {
	out := make(map[Addr]Route)
	for a, e := range f.fib {
		if e.ok {
			out[Addr(a)] = e.r
		}
	}
	return out
}

// Stats returns a view of the data-plane counters (keys: originated,
// forwarded, local_delivered, no_route, ttl_expired, malformed,
// blackholed).
func (f *Forwarder) Stats() metrics.View { return metrics.ViewOf(f.m.each) }
