// Package harness builds worlds: a backend, a topology and a transport
// stack per end host, in one call, on any substrate. A world is
// described by one struct literal — WorldConfig for BuildWorld's
// two-ended lines, ClusterConfig for BuildCluster's N-host ring — and
// that literal is the whole construction surface: substrate, topology,
// stack kind, each stack's own Config (SubCfg, MonoCfg) and the metrics
// registry are fields of it.
//
// Both TCP implementations — sublayered
// (internal/transport/sublayered, optionally behind the §3.1 shim) and
// monolithic (internal/transport/monolithic) — satisfy transport.Conn
// themselves; the two Stack wrappers here add only the transport.Stack
// signatures Go's invariant func types force. So the interop matrix
// (E4), the performance comparison (E7), the chaos soak (E10), the
// many-flow workload engine (E11) and the examples drive either
// implementation with the same code.
//
// RunUntil is the one run-to-completion loop: every driver that waits
// for an outcome (a transfer's EOFs, a workload's flows, an overlay's
// operations, routing convergence) advances its backend through it, in
// fixed virtual slices on the simulators and short wall-clock slices on
// the real-time backends.
package harness

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/transport"
	"repro/internal/transport/monolithic"
	"repro/internal/transport/sublayered"
)

// Sublayered is a sublayered stack as a transport.Stack: Addr and
// Close are the embedded stack's; Listen and Dial only widen
// *sublayered.Conn to transport.Conn.
type Sublayered struct{ *sublayered.Stack }

// Name implements transport.Stack.
func (t *Sublayered) Name() string {
	if t.Config().UseShim {
		return KindSublayeredShim.String()
	}
	return KindSublayeredNative.String()
}

// Listen implements transport.Stack.
func (t *Sublayered) Listen(port uint16, onAccept func(transport.Conn)) error {
	l, err := t.Stack.Listen(port)
	if err != nil {
		return err
	}
	l.OnAccept = func(c *sublayered.Conn) { onAccept(c) }
	return nil
}

// Dial implements transport.Stack.
func (t *Sublayered) Dial(dst network.Addr, port uint16) (transport.Conn, error) {
	c, err := t.Stack.Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Monolithic is a monolithic stack as a transport.Stack, the same way.
type Monolithic struct{ *monolithic.Stack }

// Name implements transport.Stack.
func (t *Monolithic) Name() string { return KindMonolithic.String() }

// Listen implements transport.Stack.
func (t *Monolithic) Listen(port uint16, onAccept func(transport.Conn)) error {
	l, err := t.Stack.Listen(port)
	if err != nil {
		return err
	}
	l.OnAccept = func(p *monolithic.PCB) { onAccept(p) }
	return nil
}

// Dial implements transport.Stack.
func (t *Monolithic) Dial(dst network.Addr, port uint16) (transport.Conn, error) {
	p, err := t.Stack.Dial(dst, port)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// --- world construction ---

// Kind selects a transport implementation for BuildWorld.
type Kind int

// Transport kinds.
const (
	// KindSublayeredNative uses the Fig. 6 wire format.
	KindSublayeredNative Kind = iota
	// KindSublayeredShim uses RFC 793 wire format through the shim.
	KindSublayeredShim
	// KindMonolithic is the lwIP-style baseline.
	KindMonolithic
)

func (k Kind) String() string {
	switch k {
	case KindSublayeredNative:
		return "sublayered"
	case KindSublayeredShim:
		return "sublayered+shim"
	default:
		return "monolithic"
	}
}

// World is a network — simulated or real-time — with one transport per
// end host.
type World struct {
	// Sim is the substrate backend, of any kind: drivers use it for
	// RunFor, Schedule, Now, SetTracer and Steps.
	Sim    netsim.Backend
	Topo   *network.Topology
	Client transport.Stack
	Server transport.Stack
	// ClientB and ServerB are the end hosts' node backends: on a
	// sharded engine the per-node shard views, otherwise Sim. Driver
	// code reading a host's clock (flow completion stamps) must use the
	// host's backend so the reading reflects that shard's progress.
	ClientB netsim.Backend
	ServerB netsim.Backend
	// Ends lists every client/server pair. Single-pair worlds (the
	// default) have exactly one entry, aliased by Client/Server; the
	// E16 scaling matrices build WorldConfig.Pairs disjoint lines.
	Ends []End
	// Backend is the kind the world was built on ("sim", "sharded",
	// "chan", "udp").
	Backend string
}

// End is one client/server pair: transports, their node backends and
// addresses.
type End struct {
	Client, Server         transport.Stack
	ClientB, ServerB       netsim.Backend
	ClientAddr, ServerAddr network.Addr
}

// Exec runs fn holding the backend lock — how driver code outside a
// protocol callback touches connections, flows or metrics. Inline on
// the simulator.
func (w *World) Exec(fn func()) { w.Sim.Exec(fn) }

// Close releases the backend (goroutines, sockets). A no-op on the
// simulator, so drivers can defer it unconditionally.
func (w *World) Close() error { return w.Sim.Close() }

// WorldConfig tunes BuildWorld.
type WorldConfig struct {
	Seed int64
	// Backend selects the substrate: "sim" (default — the
	// deterministic discrete-event simulator), "chan" (in-process
	// channel network on the wall clock) or "udp" (loopback UDP
	// sockets). The determinism gates only hold on "sim".
	Backend string
	Link    netsim.LinkConfig
	Hops    int // routers on the path, ≥ 2 (the two hosts); default 4
	// Pairs builds that many disjoint client/server line topologies in
	// one world (default 1) — the E16 many-flow scaling shape, where a
	// sharded backend spreads the pairs across shards. Simulator
	// backends only.
	Pairs   int
	Client  Kind
	Server  Kind
	SubCfg  sublayered.Config
	MonoCfg monolithic.Config
	// Metrics, when non-nil, adopts every instrument in the world: the
	// backend and links under "netsim/...", each router under
	// "n<addr>/network/..." and each end host's transport under
	// "n<addr>/transport/...". The layout is identical on every
	// backend.
	Metrics *metrics.Registry
}

// BuildWorld constructs a line topology 1–…–N with transports on the
// end hosts on the selected backend, and runs the control plane to
// convergence (virtually on the simulator, by polling the FIBs on the
// real-time backends).
func BuildWorld(cfg WorldConfig) *World {
	if cfg.Hops < 2 {
		cfg.Hops = 4
	}
	b, err := NewBackend(cfg.Backend, cfg.Seed, cfg.Metrics)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	rt := Realtime(cfg.Backend)
	pairs := cfg.Pairs
	if pairs < 1 {
		pairs = 1
	}
	if pairs > 1 && rt {
		panic("harness: multi-pair worlds require a simulator backend")
	}
	// Pair p occupies addresses p*Hops+1 … (p+1)*Hops, a disjoint line;
	// on a sharded engine contiguous address blocks land on contiguous
	// shard blocks, so aligned pair counts shard with no cut links.
	var edges []network.Edge
	for p := 0; p < pairs; p++ {
		base := p * cfg.Hops
		for i := 1; i < cfg.Hops; i++ {
			edges = append(edges, network.Edge{A: network.Addr(base + i), B: network.Addr(base + i + 1), Cost: 1})
		}
	}
	w := &World{Sim: b, Backend: cfg.Backend}
	// Construction arms timers whose firings (on a real-time backend)
	// race the remaining wiring, so the whole build runs under the
	// backend lock.
	b.Exec(func() {
		w.Topo = buildTopology(b, rt, edges, cfg.Link, cfg.Metrics)
		for p := 0; p < pairs; p++ {
			ca := network.Addr(p*cfg.Hops + 1)
			sa := network.Addr((p + 1) * cfg.Hops)
			cb, sb := w.Topo.Backend(ca), w.Topo.Backend(sa)
			cl := buildTransport(cfg.Client, cb, w.Topo.Routers[ca], cfg, hostScope(cfg.Metrics, int(ca)))
			sv := buildTransport(cfg.Server, sb, w.Topo.Routers[sa], cfg, hostScope(cfg.Metrics, int(sa)))
			w.Ends = append(w.Ends, End{Client: cl, Server: sv, ClientB: cb, ServerB: sb, ClientAddr: ca, ServerAddr: sa})
		}
		w.Client, w.Server = w.Ends[0].Client, w.Ends[0].Server
		w.ClientB, w.ServerB = w.Ends[0].ClientB, w.Ends[0].ServerB
	})
	converge(b, w.Topo, []network.Addr{1, w.ServerAddr()})
	return w
}

// buildTopology wires edges on b with distance-vector routing at the
// backend's control-plane cadence and adopts the routers' instruments
// into reg. The simulators keep their historical cadence (every digest
// depends on it); the real-time backends use a faster one so
// convergence costs wall milliseconds, not seconds:
//
//	timer                       sim/sharded  chan/udp
//	hello (NeighborConfig)      200 ms       50 ms
//	advert (DVConfig)           500 ms       100 ms
//	hold-down (advert / 10)     50 ms        10 ms
//
// The hold-down delays a triggered update after a route change; it
// follows from the advert interval and is not set here.
func buildTopology(b netsim.Backend, rt bool, edges []network.Edge, link netsim.LinkConfig, reg *metrics.Registry) *network.Topology {
	ncfg := network.NeighborConfig{HelloInterval: 200 * time.Millisecond}
	dvInterval := 500 * time.Millisecond
	if rt {
		ncfg.HelloInterval = 50 * time.Millisecond
		dvInterval = 100 * time.Millisecond
	}
	topo := network.BuildTopology(b, edges, link, ncfg,
		func() network.RouteComputer {
			return network.NewDistanceVector(network.DVConfig{AdvertiseInterval: dvInterval})
		})
	if reg != nil {
		topo.BindMetrics(reg)
	}
	return topo
}

// converge runs the control plane until routing has settled. The
// simulators run a fixed 5 s of virtual time, which every digest and
// bench's harness.converge_events pin; the real-time backends run until
// every router has a route to every host in hosts, or 10 s pass —
// traffic then surfaces the gap as no_route drops, which is more
// debuggable than hanging.
func converge(b netsim.Backend, topo *network.Topology, hosts []network.Addr) {
	if !Realtime(b.Name()) {
		b.RunFor(5 * time.Second)
		return
	}
	RunUntil(b, 10*time.Second, func() bool { return routed(topo, hosts) })
}

// routed reports whether every router has a route to every host in
// hosts but itself.
func routed(topo *network.Topology, hosts []network.Addr) bool {
	for addr, r := range topo.Routers {
		for _, h := range hosts {
			if addr == h {
				continue
			}
			if _, found := r.Forwarder().Lookup(h); !found {
				return false
			}
		}
	}
	return true
}

// Run slices: RunUntil checks its predicate between them. The virtual
// slice fixes where workload.Run and overlay.Run stop, and with that
// their digests; the wall-clock one bounds how long a real-time caller
// waits past its outcome.
const (
	simSlice = 500 * time.Millisecond
	rtSlice  = 2 * time.Millisecond
)

// RunUntil advances b until done holds or budget has passed since the
// call, and reports whether done held. done is evaluated under b.Exec
// before each slice, so it may read protocol state; when it already
// holds, RunUntil returns without advancing the clock. Otherwise it
// returns false once b.Now() reaches the entry time plus budget. A
// slice is simSlice of virtual time on the simulators and rtSlice of
// wall time on the real-time backends.
func RunUntil(b netsim.Backend, budget time.Duration, done func() bool) (settled bool) {
	slice := simSlice
	if Realtime(b.Name()) {
		slice = rtSlice
	}
	deadline := b.Now() + netsim.Time(budget)
	for {
		b.Exec(func() { settled = done() })
		if settled || b.Now() >= deadline {
			return settled
		}
		b.RunFor(slice)
	}
}

// hostScope names a host's transport subtree, or nil without a
// registry (nil scopes are inert).
func hostScope(reg *metrics.Registry, addr int) *metrics.Scope {
	if reg == nil {
		return nil
	}
	return reg.Scope(fmt.Sprintf("n%d", addr)).Sub("transport")
}

func buildTransport(k Kind, sim netsim.Backend, r *network.Router, cfg WorldConfig, msc *metrics.Scope) transport.Stack {
	if k == KindMonolithic {
		mc := cfg.MonoCfg
		mc.Metrics = msc
		return &Monolithic{monolithic.NewStack(sim, r, mc)}
	}
	sc := cfg.SubCfg
	if k == KindSublayeredShim {
		sc.UseShim = true
	}
	sc.Metrics = msc
	return &Sublayered{sublayered.NewStack(sim, r, sc)}
}

// ServerAddr returns the primary pair's server address (the far end
// host of a single-pair world).
func (w *World) ServerAddr() network.Addr { return w.Ends[0].ServerAddr }

// TransferResult is what RunTransfer observed.
type TransferResult struct {
	ServerGot, ClientGot []byte
	ServerEOF, ClientEOF bool
	ClientErr, ServerErr error
	ClientConn           transport.Conn
	ServerConn           transport.Conn
	Elapsed              time.Duration // virtual time from dial to both EOFs
}

// RunTransfer sends c2s from client to server and s2c back, closing
// each direction after its data; both ends are wired by the same pump.
// It runs the world through RunUntil, on every backend, until both
// ends have seen EOF, both ends have died, or budget (virtual on the
// simulators, wall on the real-time backends) has passed. A transfer
// that aborts at both ends stops there; one that can neither finish
// nor die runs the whole budget.
func RunTransfer(w *World, c2s, s2c []byte, budget time.Duration) (*TransferResult, error) {
	res := &TransferResult{}
	var setupErr error
	var start, serverFin, clientFin netsim.Time
	w.Exec(func() {
		start = w.Sim.Now()
		if err := w.Server.Listen(80, func(sc transport.Conn) {
			res.ServerConn = sc
			pump(sc, w.ServerB, s2c, &res.ServerGot, &res.ServerEOF, &serverFin, &res.ServerErr)
		}); err != nil {
			setupErr = err
			return
		}
		cc, err := w.Client.Dial(w.ServerAddr(), 80)
		if err != nil {
			setupErr = err
			return
		}
		res.ClientConn = cc
		pump(cc, w.ClientB, c2s, &res.ClientGot, &res.ClientEOF, &clientFin, &res.ClientErr)
	})
	if setupErr != nil {
		return nil, setupErr
	}

	RunUntil(w.Sim, budget, func() bool {
		return res.ServerEOF && res.ClientEOF || res.ServerErr != nil && res.ClientErr != nil
	})
	w.Exec(func() {
		end := max(serverFin, clientFin)
		if end <= start {
			end = w.Sim.Now()
		}
		res.Elapsed = time.Duration(end - start)
	})
	return res, nil
}

// pump wires one end of a transfer onto c: it writes out as the send
// window allows and closes its direction once all of out is accepted,
// appends what it reads to *got, and on the first EOF sets *eof and
// stamps *fin from b. b is the end's own host backend: the callbacks
// run in protocol context, where only that node's shard clock is
// coherent, and each end's fields are written only on its own shard.
func pump(c transport.Conn, b netsim.Backend, out []byte, got *[]byte, eof *bool, fin *netsim.Time, errp *error) {
	push := func() {
		for len(out) > 0 {
			n := c.Write(out)
			if n == 0 {
				break
			}
			out = out[n:]
		}
		if len(out) == 0 {
			c.Close()
		}
	}
	c.Callbacks(push, func() {
		*got = append(*got, c.ReadAll()...)
		if c.EOF() && !*eof {
			*eof = true
			*fin = b.Now()
		}
	}, push, func(err error) { *errp = err })
}
