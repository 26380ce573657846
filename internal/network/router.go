package network

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Router assembles the Fig. 3 node: forwarding (data plane) over route
// computation over neighbor determination, attached to any number of
// Ports. Transport protocols register per-protocol handlers, which is
// the network layer's public service interface upward.
type Router struct {
	sim  netsim.Backend
	addr Addr

	ports    []Port
	nt       *NeighborTable
	rc       RouteComputer
	fwd      *Forwarder
	handlers [256]func(*Datagram) // indexed by Proto
	started  bool
	tap      func(ifi int, data []byte)
	drop     func(*Datagram) bool
	// rx and loop hold the parsed datagram lent to the drop filter and
	// the protocol handlers, so it costs no heap object per hop (a
	// local would escape through those func values). rx is for packets
	// arriving on a port: ports deliver from scheduler events or under
	// Backend.Exec, never from inside a handler, so one is in use at a
	// time. loop is for datagrams the router sends to itself, which a
	// handler may do while the datagram it was lent is still in use
	// (see SendOwned).
	rx, loop Datagram
	// msc is the router's metrics scope; kept so SwapComputer can bind
	// the replacement route computer under a fresh name. swaps counts
	// binds so repeated same-algorithm computers get distinct names.
	msc   *metrics.Scope
	swaps int
	// name caches Addr().String() so trace events don't re-format it on
	// every hop.
	name string
}

// NewRouter builds a router with the given route computer. Ports are
// added with AddPort; call Start once the topology is wired.
func NewRouter(sim netsim.Backend, addr Addr, rc RouteComputer, ncfg NeighborConfig) *Router {
	r := &Router{
		sim:  sim,
		addr: addr,
		nt:   newNeighborTable(sim, addr, ncfg),
		rc:   rc,
		fwd:  newForwarder(addr),
		name: addr.String(),
	}
	r.nt.Subscribe(func() { r.rc.OnNeighborChange() })
	rc.Attach((*routerEnv)(r))
	return r
}

// Addr returns the router's address.
func (r *Router) Addr() Addr { return r.addr }

// Neighbors exposes the neighbor-determination sublayer.
func (r *Router) Neighbors() *NeighborTable { return r.nt }

// Computer returns the active route-computation sublayer.
func (r *Router) Computer() RouteComputer { return r.rc }

// Forwarder exposes the data plane.
func (r *Router) Forwarder() *Forwarder { return r.fwd }

// AddPort attaches an interface with a link cost and returns its index.
func (r *Router) AddPort(p Port, cost uint8) int {
	ifi := r.nt.addPort(p, cost)
	r.ports = append(r.ports, p)
	p.SetReceiver(func(data []byte, ecn bool) { r.receive(ifi, data, ecn) })
	return ifi
}

// Start launches the control plane.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	r.nt.start()
	r.rc.Start()
}

// SwapComputer replaces the route-computation sublayer at runtime — the
// paper's fungibility claim for the network layer (E2). The forwarding
// plane and neighbor sublayer are untouched; the new computer simply
// installs its own FIB when it converges.
func (r *Router) SwapComputer(rc RouteComputer) {
	r.rc.Stop()
	r.rc = rc
	rc.Attach((*routerEnv)(r))
	r.bindComputer()
	if r.started {
		rc.Start()
		rc.OnNeighborChange()
	}
}

// BindMetrics adopts the router's sublayer counters into sc:
// "neighbor/...", "forwarding/..." and "routing/<algorithm>/...".
// Safe to call with a nil scope.
func (r *Router) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	r.msc = sc
	r.nt.m.each(sc.Sub("neighbor").Register)
	r.fwd.m.each(sc.Sub("forwarding").Register)
	r.bindComputer()
}

func (r *Router) bindComputer() {
	if r.msc == nil {
		return
	}
	name := r.rc.Name()
	if r.swaps > 0 {
		name = fmt.Sprintf("%s.%d", name, r.swaps)
	}
	r.swaps++
	if in, ok := r.rc.(metrics.Instrumented); ok {
		in.BindMetrics(r.msc.Sub("routing").Sub(name))
	}
}

// Handle registers the upward delivery hook for a protocol — the
// network layer's public interface (it is a layer, not a sublayer: it
// has names and a complete service).
func (r *Router) Handle(p Proto, fn func(*Datagram)) { r.handlers[p] = fn }

// Send originates a datagram toward dst. The payload is copied.
func (r *Router) Send(dst Addr, proto Proto, payload []byte) error {
	return r.SendECN(dst, proto, payload, false)
}

// SendECN originates a datagram carrying an ECN mark (used by
// transports that echo congestion signals). The payload is copied.
func (r *Router) SendECN(dst Addr, proto Proto, payload []byte, ecn bool) error {
	buf := bufpool.Get(HeaderLen + len(payload))
	copy(buf[HeaderLen:], payload)
	return r.SendOwned(dst, proto, buf, ecn)
}

// SendOwned originates a datagram from a caller-owned wire buffer:
// buf[:Headroom] is writable scratch the router stamps its header
// into, buf[Headroom:] is the payload. Ownership of buf transfers to
// the router — transports marshal a segment once into a pooled buffer
// and the same bytes ride every hop to the destination.
func (r *Router) SendOwned(dst Addr, proto Proto, buf []byte, ecn bool) error {
	stampHeader(buf, r.addr, dst, DefaultTTL, proto)
	r.fwd.m.originated.Inc()
	tr := r.sim.Tracer()
	if tr != nil {
		r.trace(tr, "originate", "", buf, DefaultTTL, false)
	}
	if dst == r.addr {
		dg, err := parseDatagram(buf)
		if err == nil {
			dg.ECN = ecn
			if tr != nil {
				r.trace(tr, "recv", netsim.VerdictDelivered, buf, dg.TTL, true)
			}
			// The handler may itself be running inside a loopback
			// delivery: it gets its datagram back when this one is over.
			outer := r.loop
			r.loop = dg
			r.deliverLocal(&r.loop)
			r.loop = outer
		} else if tr != nil {
			tr.Retire(buf)
		}
		bufpool.Put(buf)
		return err
	}
	route, ok := r.fwd.Lookup(dst)
	if !ok || route.If < 0 {
		r.fwd.m.noRoute.Inc()
		if tr != nil {
			r.trace(tr, "drop", netsim.VerdictNoRoute, buf, DefaultTTL, true)
		}
		bufpool.Put(buf)
		return fmt.Errorf("network: %v has no route to %v", r.addr, dst)
	}
	r.ports[route.If].Send(buf, ecn)
	return nil
}

// trace emits one network-layer span event about wire (callers check
// the Tracer for nil first — the disabled path must stay branch-only).
func (r *Router) trace(t netsim.Tracer, kind, verdict string, wire []byte, ttl uint8, end bool) {
	t.Emit(netsim.TraceEvent{
		At: r.sim.Now(), ID: t.ID(wire), Len: len(wire), TTL: ttl,
		Node: r.name, Layer: netsim.LayerNet, Kind: kind, Verdict: verdict, End: end,
	}, nil)
}

// Tap installs an observer invoked with every packet the router
// receives, before demultiplexing — the hook packet tracing hangs off.
func (r *Router) Tap(fn func(ifi int, data []byte)) { r.tap = fn }

// SetDropFilter installs a predicate consulted for every received data
// datagram; when it returns true the datagram is silently discarded and
// counted as blackholed. Control traffic (hello, routing) is never
// filtered, so routing stays converged while the data plane misbehaves —
// the classic blackhole failure. A nil filter removes the hook.
func (r *Router) SetDropFilter(fn func(*Datagram) bool) { r.drop = fn }

// receive demultiplexes a wire packet by class: hello to the neighbor
// sublayer, routing to the route computer, data to the forwarder. The
// three sublayers literally use different packets (T3).
//
// The router owns data: control packets and locally consumed datagrams
// are returned to the bufpool here (the sublayers above parse into
// their own structures and never retain wire views), while forwarded
// datagrams hand the same buffer to the next hop's port.
func (r *Router) receive(ifi int, data []byte, ecn bool) {
	if len(data) == 0 {
		bufpool.Put(data)
		return
	}
	if r.tap != nil {
		r.tap(ifi, data)
	}
	switch data[0] {
	case classHello:
		r.nt.onHello(ifi, data)
		if t := r.sim.Tracer(); t != nil {
			t.Retire(data) // control traffic ends here, untraced
		}
	case classRouting:
		if sender, body, err := unmarshalRouting(data); err == nil {
			r.rc.OnPacket(ifi, sender, body)
		}
		if t := r.sim.Tracer(); t != nil {
			t.Retire(data)
		}
	case classData:
		var err error
		if r.rx, err = parseDatagram(data); err != nil {
			r.fwd.m.malformed.Inc()
			if t := r.sim.Tracer(); t != nil {
				r.trace(t, "drop", netsim.VerdictMalformed, data, 0, true)
			}
			break
		}
		dg := &r.rx
		dg.ECN = dg.ECN || ecn
		if r.drop != nil && r.drop(dg) {
			r.fwd.m.blackholed.Inc()
			if t := r.sim.Tracer(); t != nil {
				r.trace(t, "drop", netsim.VerdictBlackholed, data, dg.TTL, true)
			}
			break
		}
		r.forward(dg, data)
		return // forward settles ownership itself
	default:
		if t := r.sim.Tracer(); t != nil {
			t.Retire(data)
		}
	}
	bufpool.Put(data)
}

// forward moves a datagram toward its destination or delivers it. wire
// is the received buffer dg parses; on the forwarding path the TTL is
// decremented in place and the very same buffer goes out the next-hop
// port — zero per-hop allocation.
func (r *Router) forward(dg *Datagram, wire []byte) {
	tr := r.sim.Tracer()
	if dg.Dst == r.addr {
		if tr != nil {
			r.trace(tr, "recv", netsim.VerdictDelivered, wire, dg.TTL, true)
		}
		r.deliverLocal(dg)
		bufpool.Put(wire)
		return
	}
	if dg.TTL <= 1 {
		r.fwd.m.ttlExpired.Inc()
		if tr != nil {
			r.trace(tr, "drop", netsim.VerdictTTLExpired, wire, dg.TTL, true)
		}
		bufpool.Put(wire)
		return
	}
	dg.TTL--
	wire[ttlOffset] = dg.TTL
	route, ok := r.fwd.Lookup(dg.Dst)
	if !ok || route.If < 0 {
		r.fwd.m.noRoute.Inc()
		if tr != nil {
			r.trace(tr, "drop", netsim.VerdictNoRoute, wire, dg.TTL, true)
		}
		bufpool.Put(wire)
		return
	}
	if tr != nil {
		r.trace(tr, "hop", "", wire, dg.TTL, false)
	}
	r.ports[route.If].Send(wire, dg.ECN)
	r.fwd.m.forwarded.Inc()
}

// deliverLocal hands a datagram to the bound protocol handler. The
// datagram is the router's own (rx or loop) and its payload may alias
// a pooled wire buffer: both are only valid for the duration of the
// call. Handlers that keep header fields or payload bytes must copy
// them.
func (r *Router) deliverLocal(dg *Datagram) {
	r.fwd.m.localDelivered.Inc()
	if h := r.handlers[dg.Proto]; h != nil {
		h(dg)
	}
}

// routerEnv adapts Router into the RoutingEnv the route computer sees,
// keeping the computer's view narrow (T2).
type routerEnv Router

// Self implements RoutingEnv.
func (e *routerEnv) Self() Addr { return e.addr }

// Neighbors implements RoutingEnv.
func (e *routerEnv) Neighbors() []Neighbor { return e.nt.Neighbors() }

// SendRouting implements RoutingEnv.
func (e *routerEnv) SendRouting(ifi int, body []byte) {
	if ifi < 0 || ifi >= len(e.ports) {
		return
	}
	e.ports[ifi].Send(marshalRouting(e.addr, body), false)
}

// InstallFIB implements RoutingEnv.
func (e *routerEnv) InstallFIB(routes map[Addr]Route) { e.fwd.Install(routes) }

// Sim implements RoutingEnv.
func (e *routerEnv) Sim() netsim.Backend { return e.sim }

// ConnectRouters wires two routers with a duplex link of the given
// config and cost, returning the duplex for failure injection.
func ConnectRouters(sim netsim.Backend, a, b *Router, cfg netsim.LinkConfig, cost uint8) *netsim.Duplex {
	return ConnectRoutersOn(sim, sim, a, b, cfg, cost)
}

// ConnectRoutersOn is ConnectRouters for routers whose nodes may live
// on different backend views (shards of a sharded engine): each
// direction's link is created on the sending router's backend and
// delivers into the receiving router's shard.
func ConnectRoutersOn(ba, bb netsim.Backend, a, b *Router, cfg netsim.LinkConfig, cost uint8) *netsim.Duplex {
	pa := NewLinkPort(nil)
	pb := NewLinkPort(nil)
	d := netsim.NewDuplexBetween(ba, bb, cfg,
		func(pkt *netsim.Packet) { pa.Deliver(pkt) },
		func(pkt *netsim.Packet) { pb.Deliver(pkt) },
	)
	pa.out = d.AB
	pb.out = d.BA
	a.AddPort(pa, cost)
	b.AddPort(pb, cost)
	return d
}
