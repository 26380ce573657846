package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bitio"
	"repro/internal/bufpool"
	"repro/internal/datalink"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/overlay"
	"repro/internal/stuffing"
	"repro/internal/tcpwire"
	"repro/internal/transport/harness"
	"repro/internal/transport/seg"
)

// The ledger: isolated calls into one layer's public API, timed with a
// fixed iteration count after a warm-up, reporting ns/op and allocs/op.
// Each row is name, set-up closure, op closure. The inputs — packet
// size mix, pending-event depth, registry size, prior-connection count
// — are what the workload's own counted rep just produced, so a row
// prices the call under the state that workload actually builds up.

// ledgerInputs is the state a workload's counted rep observed.
type ledgerInputs struct {
	dataPayload  int     // mean payload bytes of a data-bearing segment
	dataShare    float64 // data-bearing share of all segments sent
	pendingDepth int     // mean pending events in the engine heap
	instruments  int     // registry size at the end of the rep
	priorConns   int     // connections the workload opened
	impaired     netsim.LinkConfig
}

func (in ledgerInputs) normalised() ledgerInputs {
	if in.dataPayload <= 0 {
		in.dataPayload = 1000
	}
	if in.dataPayload > 1400 {
		in.dataPayload = 1400
	}
	if in.dataShare <= 0 || in.dataShare > 1 {
		in.dataShare = 0.5
	}
	return in
}

// mixSlots is the length of the payload-size cycle codec rows walk:
// round(dataShare × mixSlots) of every mixSlots ops carry a payload.
const mixSlots = 16

func (in ledgerInputs) payloadMix() [mixSlots][]byte {
	var mix [mixSlots][]byte
	n := int(in.dataShare*mixSlots + 0.5)
	body := make([]byte, in.dataPayload)
	fillStream(0x1ed9e5, 0, body)
	for i := 0; i < n; i++ {
		// Spread the data slots evenly through the cycle.
		mix[i*mixSlots/n] = body
	}
	return mix
}

type ledgerRow struct {
	name   string // metric stem; "<name>_ns" (or _us) and, if allocs, "<name>_allocs"
	unit   string // "ns" or "us"
	allocs bool
	iters  int
	// setup builds the state and returns the op. A row may return a
	// batch size > 1 when one op call performs that many operations.
	setup func(in ledgerInputs) (op func(i int), batch int, cleanup func())
}

type ledgerValue struct {
	perOp  float64 // in the row's unit
	allocs float64
}

var ledgerSink int

// runLedger runs every row; scale shrinks the iteration counts for
// smoke runs the way it shrinks the workloads.
func runLedger(in ledgerInputs, scale float64) map[string]ledgerValue {
	in = in.normalised()
	out := make(map[string]ledgerValue, len(ledgerRows))
	for _, row := range ledgerRows {
		row.iters = scaled(row.iters, scale, 2)
		op, batch, cleanup := row.setup(in)
		// The op index keeps counting through the warm-up, so a row that
		// consumes fresh state per op (a registry name) never repeats.
		warm := row.iters/10 + 1
		for i := 0; i < warm; i++ {
			op(i)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := warm; i < warm+row.iters; i++ {
			op(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if cleanup != nil {
			cleanup()
		}
		n := float64(row.iters * batch)
		v := ledgerValue{perOp: float64(el.Nanoseconds()) / n, allocs: float64(m1.Mallocs-m0.Mallocs) / n}
		if row.unit == "us" {
			v.perOp /= 1e3
		}
		out[row.name] = v
	}
	return out
}

// sinkPort is a network.Port that counts what it is asked to send and
// returns the buffer to the pool; recv is the router's upcall.
type sinkPort struct {
	recv func(data []byte, ecn bool)
	sent int
}

func (p *sinkPort) Send(data []byte, _ bool)                   { p.sent++; bufpool.Put(data) }
func (p *sinkPort) SetReceiver(fn func(data []byte, ecn bool)) { p.recv = fn }

func subHeaderFor(payload []byte) tcpwire.SubHeader {
	return tcpwire.SubHeader{
		DM:  tcpwire.DMSection{SrcPort: 49152, DstPort: 80},
		CM:  tcpwire.CMSection{ISN: 0x1234567},
		RD:  tcpwire.RDSection{Seq: 1_000_000, Ack: 2_000_000, AckValid: true},
		OSR: tcpwire.OSRSection{Window: 65535, DataLen: uint16(len(payload))},
	}
}

// connBatch is how many empty connections one conn_setup op opens,
// establishes and closes.
const connBatch = 100

// connSetupRow prices dial + accept + close of an empty connection on a
// 2-hop world that already carried `prior` connections (their
// instruments stay registered, which is the state that matters).
func connSetupRow(kind harness.Kind, prior func(ledgerInputs) int) func(ledgerInputs) (func(int), int, func()) {
	return func(in ledgerInputs) (func(int), int, func()) {
		w := harness.BuildWorld(harness.WorldConfig{Seed: 1, Hops: 2, Link: netsim.LinkConfig{Delay: time.Millisecond},
			Client: kind, Server: kind, Metrics: metrics.New()})
		d := &flowDriver{w: w}
		var err error
		w.Exec(func() { err = d.listen() })
		if err != nil {
			panic(fmt.Sprintf("ledger: %v", err))
		}
		open := func(n int) {
			flows := newFlows(make([]flowPlan, n))
			w.Exec(func() { d.start(flows) })
			if run := d.run(flows, nil); run.failed > 0 {
				panic(fmt.Sprintf("ledger: %d of %d empty connections failed", run.failed, n))
			}
		}
		for left := prior(in); left > 0; left -= connBatch {
			open(min(left, connBatch))
		}
		return func(int) { open(connBatch) }, connBatch, func() { w.Close() }
	}
}

func registerRow(prefill func(ledgerInputs) int) func(ledgerInputs) (func(int), int, func()) {
	return func(in ledgerInputs) (func(int), int, func()) {
		reg := metrics.New()
		for i, n := 0, prefill(in); i < n; i++ {
			reg.Register(fmt.Sprintf("n%d/transport/conn%d/rd/c%d", i%16, i/16/30, i/16%30), &metrics.Counter{})
		}
		const names = 1 << 17
		pre := make([]string, names)
		for i := range pre {
			pre[i] = fmt.Sprintf("ledger/conn%d/crossings/to_dm", i)
		}
		var c metrics.Counter
		return func(i int) { reg.Register(pre[i%names], &c) }, 1, nil
	}
}

var ledgerRows = []ledgerRow{
	{name: "netsim.sched_run", unit: "ns", iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		// Schedule one event and run it with pendingDepth others
		// waiting behind it: one sift-up and one sift-down at depth.
		sim := netsim.NewSimulator(1)
		nop := func() {}
		for i := 0; i < in.pendingDepth; i++ {
			sim.ScheduleTimer(time.Hour+time.Duration(i), nop)
		}
		return func(int) {
			sim.ScheduleTimer(time.Microsecond, nop)
			sim.Step()
		}, 1, nil
	}},
	{name: "netsim.link_send", unit: "ns", iters: 100_000, setup: linkSendRow(func(ledgerInputs) netsim.LinkConfig {
		return netsim.LinkConfig{Delay: time.Millisecond}
	})},
	{name: "netsim.link_send_impaired", unit: "ns", iters: 100_000, setup: linkSendRow(func(in ledgerInputs) netsim.LinkConfig {
		return in.impaired
	})},
	{name: "network.forward", unit: "ns", iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		// One router, two sink ports, a static route: receive → FIB
		// lookup → TTL decrement → out the next-hop port.
		sim := netsim.NewSimulator(1)
		r := network.NewRouter(sim, 2, network.NewDistanceVector(network.DVConfig{}), network.NeighborConfig{})
		inPort, outPort := &sinkPort{}, &sinkPort{}
		r.AddPort(inPort, 1)
		outIf := r.AddPort(outPort, 1)
		r.Forwarder().Install(map[network.Addr]network.Route{3: {Dst: 3, NextHop: 3, If: outIf, Metric: 1}})
		mix := in.payloadMix()
		var wire [mixSlots][]byte
		for i, p := range mix {
			wire[i] = (&network.Datagram{Src: 1, Dst: 3, TTL: 64, Proto: network.ProtoSubTCP, Payload: make([]byte, 24+len(p))}).Marshal()
		}
		return func(i int) {
			tpl := wire[i%mixSlots]
			buf := bufpool.Get(len(tpl))
			copy(buf, tpl)
			inPort.recv(buf, false)
		}, 1, func() { ledgerSink += outPort.sent }
	}},
	{name: "tcpwire.marshal", unit: "ns", allocs: true, iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		mix := in.payloadMix()
		h := tcpwire.TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 1_000_000, Ack: 2_000_000, Flags: tcpwire.FlagACK, Window: 65535, WScale: -1}
		buf := make([]byte, h.WireLen(in.dataPayload))
		return func(i int) {
			p := mix[i%mixSlots]
			h.MarshalTo(buf[:h.WireLen(len(p))], p, 1, 4)
		}, 1, nil
	}},
	{name: "tcpwire.unmarshal", unit: "ns", allocs: true, iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		mix := in.payloadMix()
		h := tcpwire.TCPHeader{SrcPort: 49152, DstPort: 80, Seq: 1_000_000, Ack: 2_000_000, Flags: tcpwire.FlagACK, Window: 65535, WScale: -1}
		var wire [mixSlots][]byte
		for i, p := range mix {
			wire[i] = h.Marshal(p, 1, 4)
		}
		var got tcpwire.TCPHeader
		return func(i int) {
			if _, err := tcpwire.UnmarshalTCPInto(&got, wire[i%mixSlots], 1, 4); err != nil {
				panic(err)
			}
		}, 1, nil
	}},
	{name: "tcpwire.sub_marshal", unit: "ns", allocs: true, iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		mix := in.payloadMix()
		buf := make([]byte, 64+in.dataPayload)
		return func(i int) {
			p := mix[i%mixSlots]
			h := subHeaderFor(p)
			h.MarshalTo(buf[:h.WireLen(len(p))], p)
		}, 1, nil
	}},
	{name: "tcpwire.sub_unmarshal", unit: "ns", allocs: true, iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		mix := in.payloadMix()
		var wire [mixSlots][]byte
		for i, p := range mix {
			h := subHeaderFor(p)
			wire[i] = h.Marshal(p)
		}
		var got tcpwire.SubHeader
		return func(i int) {
			if _, err := tcpwire.UnmarshalSubInto(&got, wire[i%mixSlots]); err != nil {
				panic(err)
			}
		}, 1, nil
	}},
	{name: "tcpwire.shim_roundtrip", unit: "ns", allocs: true, iters: 100_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		mix := in.payloadMix()
		shim := tcpwire.NewShim(1000)
		key := tcpwire.FlowKey{SrcAddr: 1, DstAddr: 4, SrcPort: 49152, DstPort: 80}
		return func(i int) {
			p := mix[i%mixSlots]
			h := subHeaderFor(p)
			if _, _, err := shim.Inbound(shim.Outbound(&h, p, key), key); err != nil {
				panic(err)
			}
		}, 1, nil
	}},
	{name: "sub.conn_setup", unit: "us", allocs: true, iters: 4,
		setup: connSetupRow(harness.KindSublayeredNative, func(ledgerInputs) int { return 0 })},
	{name: "sub.conn_setup_at_load", unit: "us", iters: 4,
		setup: connSetupRow(harness.KindSublayeredNative, func(in ledgerInputs) int { return in.priorConns })},
	{name: "mono.conn_setup", unit: "us", allocs: true, iters: 4,
		setup: connSetupRow(harness.KindMonolithic, func(ledgerInputs) int { return 0 })},
	{name: "seg.reassembly_inorder", unit: "ns", iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		r := seg.NewReassembly(64 << 10)
		p := make([]byte, in.dataPayload)
		var off uint64
		return func(int) {
			ledgerSink += len(r.Insert(off, p))
			off += uint64(len(p))
		}, 1, nil
	}},
	{name: "seg.reassembly_ooo", unit: "ns", iters: 100_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		// Each pair arrives swapped: the later segment is buffered, the
		// earlier one fills the hole and releases both.
		r := seg.NewReassembly(64 << 10)
		p := make([]byte, in.dataPayload)
		n := uint64(len(p))
		var off uint64
		return func(int) {
			ledgerSink += len(r.Insert(off+n, p))
			ledgerSink += len(r.Insert(off, p))
			off += 2 * n
		}, 2, nil
	}},
	{name: "seg.sendbuf_cycle", unit: "ns", iters: 100_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		// A writer that keeps the 64 KiB send buffer full: every ack
		// releases one segment from the front (the survivors shift
		// down) and the application tops the buffer up again.
		b := seg.NewSendBuffer(64 << 10)
		p := make([]byte, in.dataPayload)
		for b.Write(p) == len(p) {
		}
		return func(int) {
			b.Release(b.Base() + uint64(len(p)))
			ledgerSink += b.Write(p)
		}, 1, nil
	}},
	{name: "seg.rangeset_add", unit: "ns", iters: 200_000, setup: func(in ledgerInputs) (func(int), int, func()) {
		var s seg.RangeSet
		n := uint64(in.dataPayload)
		var off uint64
		return func(int) {
			s.Add(off, off+n)
			off += n
		}, 1, nil
	}},
	{name: "metrics.register", unit: "ns", iters: 60_000, setup: registerRow(func(ledgerInputs) int { return 0 })},
	{name: "metrics.register_at_load", unit: "ns", iters: 60_000, setup: registerRow(func(in ledgerInputs) int { return in.instruments })},
	{name: "overlay.call", unit: "ns", iters: 400, setup: func(in ledgerInputs) (func(int), int, func()) {
		// A 2-node sim cluster, one caller, calls back to back: the
		// whole stack under one echo RPC with no wall-clock waiting.
		// Each op runs the 2 ms round trip plus whatever control-plane
		// events fall inside it.
		cl := harness.BuildCluster(harness.ClusterConfig{Seed: 1, Nodes: 2, Link: netsim.LinkConfig{Delay: time.Millisecond},
			Kind: harness.KindSublayeredNative, Metrics: metrics.New()})
		var nodes [2]*overlay.Node
		for i := range cl.Hosts {
			h := &cl.Hosts[i]
			n, err := overlay.NewNode(h.B, h.Addr, h.Stack, overlay.NodeConfig{Seed: 1})
			if err != nil {
				panic(fmt.Sprintf("ledger: %v", err))
			}
			n.Handle(overlay.KindEcho, func(_ network.Addr, p []byte) []byte { return p })
			nodes[i] = n
		}
		payload := make([]byte, 64)
		return func(int) {
			done := false
			nodes[0].Call(2, overlay.KindEcho, payload, time.Second, func(_ []byte, err error) { done = err == nil })
			for tries := 0; !done && tries < 100; tries++ {
				cl.Sim.RunFor(2500 * time.Microsecond)
			}
			if !done {
				panic("ledger: overlay.call got no reply")
			}
		}, 1, func() { cl.Close() }
	}},
	{name: "datalink.send", unit: "ns", iters: 40, setup: func(in ledgerInputs) (func(int), int, func()) {
		f := datalink.NewBitStuffFramer(stuffing.HDLC())
		pkt := make([]byte, in.dataPayload+31)
		fillStream(0xda7a, 0, pkt)
		return func(int) {
			bits, err := f.Frame(pkt)
			if err != nil || len(f.Deframe(bits)) != 1 {
				panic("ledger: datalink frame round trip failed")
			}
		}, 1, nil
	}},
	{name: "stuffing.frame1500", unit: "ns", iters: 100, setup: func(ledgerInputs) (func(int), int, func()) {
		rule := stuffing.HDLC()
		pkt := make([]byte, 1500)
		fillStream(0x57ff, 0, pkt)
		data := bitio.FromBytes(pkt)
		return func(int) {
			enc, err := rule.Encode(data)
			if err != nil {
				panic(err)
			}
			ledgerSink += enc.Len()
		}, 1, nil
	}},
}

func linkSendRow(cfg func(ledgerInputs) netsim.LinkConfig) func(ledgerInputs) (func(int), int, func()) {
	return func(in ledgerInputs) (func(int), int, func()) {
		// One Port.SendOwned plus the events it posts (delivery, queue
		// release, duplicate), drained before the next send.
		sim := netsim.NewSimulator(1)
		link := sim.NewLink(cfg(in), func(p *netsim.Packet) { bufpool.Put(p.Data) })
		mix := in.payloadMix()
		return func(i int) {
			link.SendOwned(bufpool.Get(network.HeaderLen+24+len(mix[i%mixSlots])), false)
			for sim.Step() {
			}
		}, 1, nil
	}
}
