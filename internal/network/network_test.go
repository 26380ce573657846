package network

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netsim"
)

func TestDatagramMarshalRoundTrip(t *testing.T) {
	in := &Datagram{Src: 3, Dst: 9, TTL: 17, Proto: ProtoTCP, Payload: []byte("payload")}
	out, err := UnmarshalDatagram(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != 3 || out.Dst != 9 || out.TTL != 17 || out.Proto != ProtoTCP || string(out.Payload) != "payload" {
		t.Errorf("round trip = %+v", out)
	}
}

func TestDatagramUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalDatagram([]byte{0, 1}); err == nil {
		t.Error("short datagram accepted")
	}
	if _, err := UnmarshalDatagram(marshalHello(1, 1)); err == nil {
		t.Error("hello accepted as datagram")
	}
}

func TestHelloMarshal(t *testing.T) {
	s, c, err := unmarshalHello(marshalHello(42, 7))
	if err != nil || s != 42 || c != 7 {
		t.Errorf("hello = %v %v %v", s, c, err)
	}
	if _, _, err := unmarshalHello([]byte{classHello}); err == nil {
		t.Error("short hello accepted")
	}
}

func TestLSPMarshalRoundTrip(t *testing.T) {
	in := &lsp{origin: 5, seq: 123456, neighbors: []lsNeighbor{{2, 1}, {9, 4}}}
	out, err := unmarshalLSP(marshalLSP(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.origin != 5 || out.seq != 123456 || len(out.neighbors) != 2 ||
		out.neighbors[1].addr != 9 || out.neighbors[1].cost != 4 {
		t.Errorf("lsp = %+v", out)
	}
	if _, err := unmarshalLSP([]byte{routingProtoLS, 0, 5, 0, 0}); err == nil {
		t.Error("short LSP accepted")
	}
}

func fastNeighborCfg() NeighborConfig {
	return NeighborConfig{HelloInterval: 200 * time.Millisecond}
}

func quickLink() netsim.LinkConfig {
	return netsim.LinkConfig{Delay: time.Millisecond}
}

// lineTopology: 1 - 2 - 3 - 4.
func lineEdges() []Edge {
	return []Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}, {A: 3, B: 4, Cost: 1}}
}

func converge(t *Topology, d time.Duration) { t.Sim.RunFor(d) }

func TestNeighborDiscoveryAndExpiry(t *testing.T) {
	sim := netsim.NewSimulator(1)
	topo := BuildTopology(sim, []Edge{{A: 1, B: 2, Cost: 1}}, quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewDistanceVector(DVConfig{}) })
	converge(topo, 2*time.Second)
	n1 := topo.Routers[1].Neighbors().Neighbors()
	if len(n1) != 1 || n1[0].Addr != 2 {
		t.Fatalf("router 1 neighbors = %+v", n1)
	}
	st := topo.Routers[1].Neighbors().Stats()
	if st["hellos_sent"] == 0 || st["hellos_received"] == 0 || st["ups"] != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Cut the link: neighbor must expire.
	topo.CutLink(1, 2)
	converge(topo, 3*time.Second)
	if len(topo.Routers[1].Neighbors().Neighbors()) != 0 {
		t.Error("neighbor did not expire after link cut")
	}
	if topo.Routers[1].Neighbors().Stats()["downs"] != 1 {
		t.Error("down not counted")
	}
	// Restore: neighbor returns.
	topo.Links[[2]Addr{1, 2}].SetUp(true)
	converge(topo, 2*time.Second)
	if len(topo.Routers[1].Neighbors().Neighbors()) != 1 {
		t.Error("neighbor did not return after restore")
	}
}

func computers() map[string]func() RouteComputer {
	return map[string]func() RouteComputer{
		"distance-vector": func() RouteComputer {
			return NewDistanceVector(DVConfig{AdvertiseInterval: 500 * time.Millisecond})
		},
		"link-state": func() RouteComputer {
			return NewLinkState(LSConfig{RefreshInterval: 2 * time.Second})
		},
	}
}

// TestE2BothComputersMatchReference: on random connected graphs, both
// algorithms converge to the true shortest-path metrics everywhere —
// the heart of E2.
func TestE2BothComputersMatchReference(t *testing.T) {
	for name, mk := range computers() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			for trial := 0; trial < 4; trial++ {
				edges := RandomConnectedGraph(rng, 6+trial*2, 3, 3)
				sim := netsim.NewSimulator(int64(100 + trial))
				topo := BuildTopology(sim, edges, quickLink(), fastNeighborCfg(), mk)
				converge(topo, 12*time.Second)
				ref := ReferenceDistances(edges)
				for a, r := range topo.Routers {
					routes := r.Computer().Routes()
					for b := range topo.Routers {
						want := ref[a][b]
						got, ok := routes[b]
						if !ok {
							t.Fatalf("trial %d: %v has no route to %v (want metric %d)", trial, a, b, want)
						}
						if got.Metric != want {
							t.Fatalf("trial %d: %v→%v metric %d, want %d", trial, a, b, got.Metric, want)
						}
					}
				}
			}
		})
	}
}

// TestEndToEndDelivery: datagrams traverse a multi-hop path.
func TestEndToEndDelivery(t *testing.T) {
	for name, mk := range computers() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			sim := netsim.NewSimulator(5)
			topo := BuildTopology(sim, lineEdges(), quickLink(), fastNeighborCfg(), mk)
			converge(topo, 8*time.Second)
			var got []byte
			topo.Routers[4].Handle(ProtoUDP, func(dg *Datagram) { got = append([]byte(nil), dg.Payload...) })
			if err := topo.Routers[1].Send(4, ProtoUDP, []byte("across")); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(time.Second)
			if string(got) != "across" {
				t.Fatalf("delivery failed: %q", got)
			}
			// Intermediate routers forwarded.
			if topo.Routers[2].Forwarder().Stats()["forwarded"] == 0 {
				t.Error("router 2 forwarded nothing")
			}
			if topo.Routers[4].Forwarder().Stats()["local_delivered"] == 0 {
				t.Error("router 4 delivered nothing")
			}
		})
	}
}

// TestReconvergenceAfterLinkFailure: traffic reroutes around a cut.
func TestReconvergenceAfterLinkFailure(t *testing.T) {
	for name, mk := range computers() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			// Square with diagonal costs: 1-2, 2-4 (primary), 1-3, 3-4 (backup).
			edges := []Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 4, Cost: 1}, {A: 1, B: 3, Cost: 2}, {A: 3, B: 4, Cost: 2}}
			sim := netsim.NewSimulator(9)
			topo := BuildTopology(sim, edges, quickLink(), fastNeighborCfg(), mk)
			converge(topo, 10*time.Second)

			r, ok := topo.Routers[1].Computer().Routes()[4]
			if !ok || r.Metric != 2 {
				t.Fatalf("pre-cut route = %+v", r)
			}
			topo.CutLink(2, 4)
			converge(topo, 15*time.Second)
			r, ok = topo.Routers[1].Computer().Routes()[4]
			if !ok {
				t.Fatal("no route after reconvergence")
			}
			if r.Metric != 4 {
				t.Fatalf("post-cut metric = %d, want 4 (via 3)", r.Metric)
			}
			// And traffic flows on the backup path.
			delivered := false
			topo.Routers[4].Handle(ProtoUDP, func(dg *Datagram) { delivered = true })
			if err := topo.Routers[1].Send(4, ProtoUDP, []byte("x")); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(time.Second)
			if !delivered {
				t.Error("no delivery after reconvergence")
			}
		})
	}
}

// TestE2SwapComputerLive is the paper's headline network-layer claim:
// swap distance vector for link state without changing forwarding. The
// forwarding plane object is identical before and after; only the FIB
// contents are re-installed by the new computer.
func TestE2SwapComputerLive(t *testing.T) {
	sim := netsim.NewSimulator(13)
	topo := BuildTopology(sim, lineEdges(), quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewDistanceVector(DVConfig{AdvertiseInterval: 500 * time.Millisecond}) })
	converge(topo, 8*time.Second)

	fwdBefore := topo.Routers[1].Forwarder()
	routesDV := topo.Routers[1].Computer().Routes()
	if topo.Routers[1].Computer().Name() != "distance-vector" {
		t.Fatal("wrong initial computer")
	}

	// Swap every router to link state, live.
	for _, r := range topo.Routers {
		r.SwapComputer(NewLinkState(LSConfig{RefreshInterval: 2 * time.Second}))
	}
	converge(topo, 10*time.Second)

	if topo.Routers[1].Computer().Name() != "link-state" {
		t.Fatal("swap did not take")
	}
	if topo.Routers[1].Forwarder() != fwdBefore {
		t.Fatal("forwarding plane was replaced — sublayer boundary violated")
	}
	routesLS := topo.Routers[1].Computer().Routes()
	for dst, dv := range routesDV {
		ls, ok := routesLS[dst]
		if !ok || ls.Metric != dv.Metric {
			t.Fatalf("dst %v: DV metric %d, LS %+v", dst, dv.Metric, ls)
		}
	}
	// Traffic still flows.
	delivered := false
	topo.Routers[4].Handle(ProtoUDP, func(dg *Datagram) { delivered = true })
	if err := topo.Routers[1].Send(4, ProtoUDP, []byte("post-swap")); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if !delivered {
		t.Error("no delivery after computer swap")
	}
}

func TestTTLExpiry(t *testing.T) {
	sim := netsim.NewSimulator(3)
	topo := BuildTopology(sim, lineEdges(), quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewDistanceVector(DVConfig{AdvertiseInterval: 500 * time.Millisecond}) })
	converge(topo, 8*time.Second)
	// Hand-craft a TTL-2 datagram: it must die at router 3.
	dg := &Datagram{Src: 1, Dst: 4, TTL: 3, Proto: ProtoUDP, Payload: []byte("x")}
	delivered := false
	topo.Routers[4].Handle(ProtoUDP, func(*Datagram) { delivered = true })
	route, _ := topo.Routers[1].Forwarder().Lookup(4)
	_ = route
	topo.Routers[1].forward(dg, dg.Marshal()) // TTL 3→2 at r1, 2→1 at r2, expires at r3
	sim.RunFor(time.Second)
	if delivered {
		t.Error("TTL did not expire")
	}
	if topo.Routers[3].Forwarder().Stats()["ttl_expired"] == 0 {
		t.Error("TTL expiry not counted")
	}
}

func TestNoRouteError(t *testing.T) {
	sim := netsim.NewSimulator(4)
	rc := NewDistanceVector(DVConfig{})
	r := NewRouter(sim, 1, rc, fastNeighborCfg())
	r.Start()
	if err := r.Send(99, ProtoUDP, []byte("x")); err == nil {
		t.Error("send with no route succeeded")
	}
	if r.Forwarder().Stats()["no_route"] != 1 {
		t.Error("NoRoute not counted")
	}
}

func TestLocalLoopback(t *testing.T) {
	sim := netsim.NewSimulator(4)
	r := NewRouter(sim, 1, NewDistanceVector(DVConfig{}), fastNeighborCfg())
	var got []byte
	r.Handle(ProtoUDP, func(dg *Datagram) { got = append([]byte(nil), dg.Payload...) })
	if err := r.Send(1, ProtoUDP, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if string(got) != "self" {
		t.Error("loopback failed")
	}
}

func TestCountToInfinityBounded(t *testing.T) {
	// After partition, DV routes to the lost half disappear (bounded
	// by Infinity=16) rather than oscillating forever.
	sim := netsim.NewSimulator(6)
	edges := []Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}}
	topo := BuildTopology(sim, edges, quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewDistanceVector(DVConfig{AdvertiseInterval: 300 * time.Millisecond}) })
	converge(topo, 6*time.Second)
	if _, ok := topo.Routers[1].Computer().Routes()[3]; !ok {
		t.Fatal("no initial route 1→3")
	}
	topo.CutLink(2, 3)
	converge(topo, 20*time.Second)
	if _, ok := topo.Routers[1].Computer().Routes()[3]; ok {
		t.Error("route to partitioned node survived")
	}
	if _, ok := topo.Routers[1].Computer().Routes()[2]; !ok {
		t.Error("route to still-connected node lost")
	}
}

func TestForwarderInstallCopies(t *testing.T) {
	f := newForwarder(1)
	routes := map[Addr]Route{2: {Dst: 2, NextHop: 2, If: 0, Metric: 1}}
	f.Install(routes)
	routes[3] = Route{Dst: 3} // mutate caller's map
	if _, ok := f.Lookup(3); ok {
		t.Error("Install aliased the caller's map")
	}
	if r, ok := f.Lookup(2); !ok || r != routes[2] {
		t.Errorf("Lookup(2) = %v, %v, want the installed route", r, ok)
	}
	// The FIB is indexed by address: holes below the largest installed
	// address and addresses past it both miss.
	for _, a := range []Addr{0, 1, 3, 65535} {
		if r, ok := f.Lookup(a); ok {
			t.Errorf("Lookup(%v) = %v, want no route", a, r)
		}
	}
	if r, ok := f.Lookup(2); !ok || r != routes[2] {
		t.Errorf("Lookup(2) = %v, %v", r, ok)
	}
}

func TestFormatRoutesDeterministic(t *testing.T) {
	routes := map[Addr]Route{
		3: {Dst: 3, NextHop: 2, If: 0, Metric: 2},
		2: {Dst: 2, NextHop: 2, If: 0, Metric: 1},
	}
	a, b := FormatRoutes(routes), FormatRoutes(routes)
	if a != b || a == "" {
		t.Error("FormatRoutes not deterministic")
	}
	if !bytes.Contains([]byte(a), []byte("n2 via n2")) {
		t.Errorf("format = %q", a)
	}
}

func TestReferenceDistances(t *testing.T) {
	edges := []Edge{{A: 1, B: 2, Cost: 1}, {A: 2, B: 3, Cost: 1}, {A: 1, B: 3, Cost: 5}}
	d := ReferenceDistances(edges)
	if d[1][3] != 2 {
		t.Errorf("d(1,3) = %d, want 2 via 2", d[1][3])
	}
	if d[3][1] != 2 {
		t.Error("not symmetric")
	}
	if d[1][1] != 0 {
		t.Error("self distance not 0")
	}
}

func TestRandomConnectedGraphIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		edges := RandomConnectedGraph(rng, n, rng.Intn(5), 4)
		d := ReferenceDistances(edges)
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				if _, ok := d[Addr(i)][Addr(j)]; !ok {
					t.Fatalf("graph disconnected: %d -/-> %d", i, j)
				}
			}
		}
	}
}

// Network over a full data-link sublayer stack: the layer boundary of
// Fig. 3 ("next hop Data Link") composes with Fig. 2.
func TestNetworkOverDatalinkStackPort(t *testing.T) {
	// This wiring is exercised end-to-end in the internetlab example
	// and the E3 integration tests; here we check the Port adapters.
	sim := netsim.NewSimulator(2)
	lpA := NewLinkPort(nil)
	lpB := NewLinkPort(nil)
	d := netsim.NewDuplexOn(sim, quickLink(),
		func(p *netsim.Packet) { lpA.Deliver(p) },
		func(p *netsim.Packet) { lpB.Deliver(p) })
	lpA.out, lpB.out = d.AB, d.BA
	var got []byte
	lpB.SetReceiver(func(data []byte, ecn bool) { got = data })
	lpA.Send([]byte("via-port"), false)
	for sim.Step() {
	}
	if string(got) != "via-port" {
		t.Errorf("port delivery = %q", got)
	}
}

func BenchmarkForwardDatagram(b *testing.B) {
	sim := netsim.NewSimulator(1)
	topo := BuildTopology(sim, lineEdges(), quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewDistanceVector(DVConfig{}) })
	sim.RunFor(10 * time.Second)
	payload := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.Routers[1].Send(4, ProtoUDP, payload)
		if i%256 == 255 {
			sim.RunFor(50 * time.Millisecond)
		}
	}
}

func BenchmarkSPF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := RandomConnectedGraph(rng, 30, 30, 4)
	sim := netsim.NewSimulator(1)
	topo := BuildTopology(sim, edges, quickLink(), fastNeighborCfg(),
		func() RouteComputer { return NewLinkState(LSConfig{}) })
	sim.RunFor(20 * time.Second)
	ls := topo.Routers[1].Computer().(*LinkState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls.spf()
	}
}

// TestLSPAging: a silenced router's LSP expires from peers' databases
// and its routes disappear, even though flooding stopped.
func TestLSPAging(t *testing.T) {
	sim := netsim.NewSimulator(31)
	topo := BuildTopology(sim, lineEdges(), quickLink(), fastNeighborCfg(),
		func() RouteComputer {
			return NewLinkState(LSConfig{RefreshInterval: time.Second})
		})
	converge(topo, 8*time.Second)
	if _, ok := topo.Routers[1].Computer().Routes()[4]; !ok {
		t.Fatal("no initial route")
	}
	// Cut router 4 off entirely; its LSP must age out at router 1 once
	// lsMaxAge has passed without a refresh.
	topo.CutLink(3, 4)
	converge(topo, lsMaxAge+5*time.Second)
	if _, ok := topo.Routers[1].Computer().Routes()[4]; ok {
		t.Error("aged-out destination still routed")
	}
	// Router 2 is still alive and routed.
	if _, ok := topo.Routers[1].Computer().Routes()[2]; !ok {
		t.Error("living destination lost")
	}
}

// TestDVGarbageCollection: poisoned routes disappear from the table
// after three advertisement periods rather than lingering at Infinity
// forever.
func TestDVGarbageCollection(t *testing.T) {
	sim := netsim.NewSimulator(32)
	topo := BuildTopology(sim, []Edge{{A: 1, B: 2, Cost: 1}}, quickLink(), fastNeighborCfg(),
		func() RouteComputer {
			return NewDistanceVector(DVConfig{AdvertiseInterval: 300 * time.Millisecond})
		})
	converge(topo, 4*time.Second)
	dv := topo.Routers[1].Computer().(*DistanceVector)
	if len(dv.Routes()) != 2 { // self + neighbor
		t.Fatalf("routes = %d", len(dv.Routes()))
	}
	topo.CutLink(1, 2)
	converge(topo, 10*time.Second)
	if _, ok := dv.Routes()[2]; ok {
		t.Error("dead route still present after GC")
	}
	// The internal table must not hold the poisoned entry either.
	if len(dv.table) != 1 {
		t.Errorf("internal table holds %d entries after GC", len(dv.table))
	}
}

// dvEnv is a RoutingEnv whose neighbor table the test edits by hand;
// it records when each routing packet leaves and on which interface.
type dvEnv struct {
	sim   *netsim.Simulator
	nbrs  []Neighbor
	sends []dvSend
}

type dvSend struct {
	at  netsim.Time
	ifi int
}

func (e *dvEnv) Self() Addr                    { return 1 }
func (e *dvEnv) Neighbors() []Neighbor         { return e.nbrs }
func (e *dvEnv) SendRouting(ifi int, _ []byte) { e.sends = append(e.sends, dvSend{e.sim.Now(), ifi}) }
func (e *dvEnv) InstallFIB(map[Addr]Route)     {}
func (e *dvEnv) Sim() netsim.Backend           { return e.sim }

// TestDVHoldDownFollowsCadence: the first route change sends a
// triggered update a tenth of the advertisement interval later, and
// the changes made while it is held down ride it — one triggered_sent
// per neighbor, not one per change. At 500 ms (every virtual-time
// world) the hold-down is 50 ms; at 100 ms (the wall-clock cadence) it
// is 10 ms.
func TestDVHoldDownFollowsCadence(t *testing.T) {
	for _, interval := range []time.Duration{500 * time.Millisecond, 100 * time.Millisecond} {
		sim := netsim.NewSimulator(1)
		env := &dvEnv{sim: sim}
		dv := NewDistanceVector(DVConfig{AdvertiseInterval: interval})
		dv.Attach(env)
		dv.Start() // the advert at 0 finds no neighbor
		hold := interval / 10
		first := 3 * interval / 10
		// Three changes inside one hold-down: two neighbors come up,
		// then the first one advertises a new destination.
		sim.Schedule(first, func() {
			env.nbrs = append(env.nbrs, Neighbor{Addr: 2, If: 0, Cost: 1})
			dv.OnNeighborChange()
		})
		sim.Schedule(first+hold/3, func() {
			env.nbrs = append(env.nbrs, Neighbor{Addr: 3, If: 1, Cost: 1})
			dv.OnNeighborChange()
		})
		sim.Schedule(first+2*hold/3, func() {
			dv.OnPacket(0, 2, []byte{routingProtoDV, 0, 9, 1})
		})
		sim.RunFor(first + 2*hold) // ends before the next periodic advert
		at := netsim.Time(first + hold)
		want := []dvSend{{at, 0}, {at, 1}}
		if len(env.sends) != len(want) || env.sends[0] != want[0] || env.sends[1] != want[1] {
			t.Errorf("interval %v: sends %v, want %v", interval, env.sends, want)
		}
		if got := dv.Stats()["triggered_sent"]; got != 2 {
			t.Errorf("interval %v: triggered_sent = %d, want 2 (one per neighbor)", interval, got)
		}
		if got := dv.Routes()[9]; got.NextHop != 2 || got.Metric != 2 {
			t.Errorf("interval %v: route to 9 = %+v, want via 2 at metric 2", interval, got)
		}
	}
}

// TestRouterSwapBeforeStart: swapping the computer on a never-started
// router must not panic and must start the new computer when the
// router starts.
func TestRouterSwapBeforeStart(t *testing.T) {
	sim := netsim.NewSimulator(33)
	r := NewRouter(sim, 1, NewDistanceVector(DVConfig{}), fastNeighborCfg())
	r.SwapComputer(NewLinkState(LSConfig{}))
	r.Start()
	sim.RunFor(time.Second)
	if r.Computer().Name() != "link-state" {
		t.Error("swap before start lost")
	}
}

// sinkPort is a Port that counts what it is asked to send; recv is the
// router's upcall, which tests call to inject a wire packet.
type sinkPort struct {
	recv func(data []byte, ecn bool)
	sent int
}

func (p *sinkPort) Send([]byte, bool)                          { p.sent++ }
func (p *sinkPort) SetReceiver(fn func(data []byte, ecn bool)) { p.recv = fn }

// TestForwardHopDoesNotAllocate pins DESIGN's "zero per-hop
// allocation": receive → FIB lookup → TTL decrement → next-hop port
// creates no heap object, the parsed Datagram included.
func TestForwardHopDoesNotAllocate(t *testing.T) {
	r := NewRouter(netsim.NewSimulator(1), 2, NewDistanceVector(DVConfig{}), NeighborConfig{})
	in, out := &sinkPort{}, &sinkPort{}
	r.AddPort(in, 1)
	outIf := r.AddPort(out, 1)
	r.Forwarder().Install(map[Addr]Route{3: {Dst: 3, NextHop: 3, If: outIf, Metric: 1}})
	r.SetDropFilter(func(dg *Datagram) bool { return dg.Proto == ProtoUDP })
	wire := (&Datagram{Src: 1, Dst: 3, TTL: 64, Proto: ProtoSubTCP, Payload: make([]byte, 1400)}).Marshal()
	allocs := testing.AllocsPerRun(1000, func() {
		wire[ttlOffset] = 64
		in.recv(wire, false)
	})
	if allocs != 0 {
		t.Errorf("one forwarded hop: %v allocs, want 0", allocs)
	}
	if out.sent != 1001 || wire[ttlOffset] != 63 {
		t.Errorf("forwarded %d datagrams with TTL %d on the wire, want 1001 with 63", out.sent, wire[ttlOffset])
	}
}

// TestHandlerSendsToSelfWhileHandling nests deliveries on one router:
// the handler of a datagram received on a port sends to the router's
// own address, and the handler of that loopback datagram does so
// again. Each handler must find the datagram it was lent unchanged
// when the deliveries it caused have returned.
func TestHandlerSendsToSelfWhileHandling(t *testing.T) {
	r := NewRouter(netsim.NewSimulator(1), 2, NewDistanceVector(DVConfig{}), NeighborConfig{})
	in := &sinkPort{}
	r.AddPort(in, 1)
	var order []string
	r.Handle(ProtoUDP, func(dg *Datagram) {
		before, payload := *dg, string(dg.Payload)
		order = append(order, payload)
		switch payload {
		case "from-port":
			if err := r.Send(2, ProtoUDP, []byte("loop-1")); err != nil {
				t.Error(err)
			}
		case "loop-1":
			if err := r.SendECN(2, ProtoUDP, []byte("loop-2"), true); err != nil {
				t.Error(err)
			}
		}
		if dg.Src != before.Src || dg.Dst != before.Dst || dg.TTL != before.TTL || dg.Proto != before.Proto ||
			dg.ECN != before.ECN || string(dg.Payload) != payload {
			t.Errorf("handler of %q: datagram is %+v after the nested delivery, was %+v", payload, *dg, before)
		}
	})
	wire := (&Datagram{Src: 1, Dst: 2, TTL: 9, Proto: ProtoUDP, Payload: []byte("from-port")}).Marshal()
	buf := bufpool.Get(len(wire))
	copy(buf, wire)
	in.recv(buf, false)
	if got := strings.Join(order, " "); got != "from-port loop-1 loop-2" {
		t.Errorf("deliveries = %q, want from-port loop-1 loop-2", got)
	}
	if got := r.Forwarder().Stats()["local_delivered"]; got != 3 {
		t.Errorf("local_delivered = %d, want 3", got)
	}
}
