package main

import (
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/transport/harness"
)

// The traced run (--trace 1): one rep per observer, reported
// separately from the end-to-end medians. Its per-layer metrics come
// from three sources, all outside the program — counts (the registry
// and bufpool, diffed around the steady phase), ledger rows (isolated
// calls, see ledger.go) and spans (see trace.go).

// probeScale sizes the small extra reps that fill layer rows a
// workload does not itself exercise (rt.* and overlay.* outside
// rpc-rt, network.hop_ns on a world with no forwarding hop).
const probeScale = 0.1

func runTraced(opts runOpts) (*WorkloadResult, error) {
	wl := opts.workload
	base := phaseSpec{workload: wl, kind: harness.KindSublayeredNative, backend: timedBackend(wl), seed: opts.seed, scale: opts.scale}
	var tl tally
	run := func(label string, ps phaseSpec) (phaseResult, error) {
		r, err := runPhase(ps)
		if err != nil {
			return r, fmt.Errorf("%s: %w", label, err)
		}
		tl.add(label, &r)
		// Observers must not change what the program computes: every
		// virtual-time rep of the workload's own work on the sublayered
		// stack owes the same digest. Probes do other work.
		if ps.kind == base.kind && ps.workload == base.workload && ps.scale == base.scale {
			tl.checkDigest(label, &r, &tl.digest)
		}
		return r, nil
	}
	with := func(mod func(*phaseSpec)) phaseSpec {
		ps := base
		mod(&ps)
		return ps
	}

	warm, err := run("warm-up", base)
	if err != nil {
		return nil, err
	}
	ref, err := run("baseline", with(func(ps *phaseSpec) { ps.counts = true }))
	if err != nil {
		return nil, err
	}

	sp := newSpans()
	traced, err := run("traced", with(func(ps *phaseSpec) { ps.sp = sp }))
	if err != nil {
		return nil, err
	}
	if opts.spanPath != "" {
		if err := sp.write(opts.spanPath, wl); err != nil {
			return nil, err
		}
	}
	msp := newSpans()
	mono, err := run("monolithic traced", with(func(ps *phaseSpec) {
		ps.kind, ps.sp, ps.counts = harness.KindMonolithic, msp, true
	}))
	if err != nil {
		return nil, err
	}
	recorded, err := run("recorder", with(func(ps *phaseSpec) { ps.recorder = true }))
	if err != nil {
		return nil, err
	}
	checked, err := run("contracts", with(func(ps *phaseSpec) { ps.contracts = true }))
	if err != nil {
		return nil, err
	}
	if checked.violations > 0 {
		tl.failed += checked.ops - checked.failed
		tl.notes = append(tl.notes, fmt.Sprintf("contracts: %d violations", checked.violations))
	}

	// The same plan on the virtual-time engines. For the stream
	// workloads sim is the baseline itself; rpc-rt's timed backend is
	// the wall clock, so it gets a sim rep of the same calls first.
	simRef := ref
	if wl == wRPC {
		if simRef, err = run("sim", with(func(ps *phaseSpec) { ps.backend = harness.BackendSim })); err != nil {
			return nil, err
		}
	}
	shard2, err := run("sharded:2", with(func(ps *phaseSpec) { ps.backend = "sharded:2" }))
	if err != nil {
		return nil, err
	}
	shard1, err := run("sharded:1", with(func(ps *phaseSpec) { ps.backend = "sharded:1" }))
	if err != nil {
		return nil, err
	}
	identical := 0.0
	if shard2.digest == simRef.digest && shard1.digest == simRef.digest && simRef.digest != "" {
		identical = 1
	}

	// rt.* and overlay.* rows: the workload's own reps on rpc-rt, a
	// small probe of the same driver elsewhere.
	rtRef, rtSim, rtLat, rtOver := ref, simRef, append(warm.latMs, ref.latMs...), append(warm.overheadUs, ref.overheadUs...)
	if wl != wRPC {
		probe := phaseSpec{workload: wRPC, kind: harness.KindSublayeredNative, backend: harness.BackendChan,
			seed: opts.seed, scale: probeScale, counts: true}
		if rtRef, err = run("rt probe", probe); err != nil {
			return nil, err
		}
		// CPU per call on sim is microseconds; give it the full call
		// count so the reading is above the clock's resolution.
		probe.backend, probe.scale = harness.BackendSim, 1
		if rtSim, err = run("rt probe on sim", probe); err != nil {
			return nil, err
		}
		rtLat, rtOver = rtRef.latMs, rtRef.overheadUs
	}
	hopAgg := sp.agg[spanHop]
	if hopAgg.Count == 0 {
		// No router forwards on this world (2 hops): price the hop on
		// a small 4-hop transfer so the row is never empty.
		psp := newSpans()
		if _, err := run("hop probe", phaseSpec{workload: wBulk, kind: harness.KindSublayeredNative,
			backend: harness.BackendSim, seed: opts.seed, scale: probeScale / 10, sp: psp}); err != nil {
			return nil, err
		}
		hopAgg = psp.agg[spanHop]
	}

	c := ref.counts
	subSegs := c["n#/transport/conn#/crossings/to_dm"]
	dataSegs := c["n#/transport/conn#/crossings/osr_to_rd"]
	in := ledgerInputs{pendingDepth: int(ref.pendingMean + 0.5), instruments: ref.instruments,
		priorConns: int(c["n#/transport/dm/new_passive"]), impaired: streamSpecFor(wLossy, 1).link}
	if dataSegs > 0 && subSegs > 0 {
		in.dataShare = dataSegs / subSegs
		in.dataPayload = int(c["n#/transport/conn#/crossings/app_bytes"] / dataSegs)
	}
	led := runLedger(in, opts.scale)

	s := newSamples()
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	put := func(name string, v float64) {
		unit, listed := units[name]
		if !listed {
			panic("bench: " + name + " is not a listed per-layer metric")
		}
		s.add(name, unit, v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(a spanAgg) float64 { return ratio(float64(a.Total), float64(a.Count)) }
	mb := float64(ref.bytes) / 1e6
	events := float64(ref.steps)

	put("harness.build_ms", ref.buildMs)
	put("harness.converge_events", float64(ref.convergeEvents))

	put("netsim.events", events)
	put("netsim.events_per_MB", ratio(events, mb))
	put("netsim.events_per_flow", ratio(events, float64(ref.ops)))
	put("netsim.pending_events_mean", ref.pendingMean)
	put("netsim.cancelled_share", ratio(c["netsim/events/cancelled"], c["netsim/events/scheduled"]))
	put("netsim.link_lost", c["netsim/link#/lost"])
	put("netsim.link_queue_drop", c["netsim/link#/queue_drop"])
	put("netsim.link_reordered", c["netsim/link#/reordered"])
	put("netsim.link_dup", c["netsim/link#/duplicate"])
	put("netsim.self_s", float64(sp.agg[spanRunSlice].Self)/1e9)

	shardRate := float64(shard2.ops-shard2.failed) / shard2.steadyS
	put("sharded.flows_per_s", shardRate)
	put("sharded.speedup", ratio(shardRate, float64(simRef.ops-simRef.failed)/simRef.steadyS))
	put("sharded.shard1_overhead_ratio", ratio(shard1.steadyS, simRef.steadyS))
	put("sharded.identical", identical)

	put("rt.rpc_per_s", float64(rtRef.ops-rtRef.failed)/rtRef.steadyS)
	put("rt.rpc_p50_ms", percentile(rtLat, 50))
	put("rt.rpc_p99_ms", percentile(rtLat, 99))
	put("rt.overhead_p50_us", percentile(rtOver, 50))
	cpuPer, simCPUPer := rtRef.cpuS/float64(rtRef.ops)*1e6, rtSim.cpuS/float64(rtSim.ops)*1e6
	put("rt.cpu_us_per_rpc", cpuPer)
	put("rt.sim_cpu_us_per_rpc", simCPUPer)
	put("rt.cpu_ratio_vs_sim", ratio(cpuPer, simCPUPer))

	put("network.forwarded", c["n#/network/forwarding/forwarded"])
	put("network.originated", c["n#/network/forwarding/originated"])
	put("network.local_delivered", c["n#/network/forwarding/local_delivered"])
	control := c["n#/network/neighbor/hellos_received"]
	for name, v := range c {
		if strings.HasSuffix(name, "/adverts_received") {
			control += v
		}
	}
	put("network.control_event_share", ratio(control, events))
	put("network.hop_ns", mean(hopAgg))

	put("sub.app_to_osr", c["n#/transport/conn#/crossings/app_to_osr"])
	put("sub.osr_to_rd", dataSegs)
	put("sub.to_dm", subSegs)
	put("sub.from_dm", c["n#/transport/conn#/crossings/from_dm"])
	put("sub.rd_to_osr_ack", c["n#/transport/conn#/crossings/rd_to_osr_ack"])
	put("sub.rd_to_osr_dat", c["n#/transport/conn#/crossings/rd_to_osr_dat"])
	var crossings float64
	for _, k := range []string{"app_to_osr", "osr_to_rd", "rd_to_osr_ack", "rd_to_osr_dat", "rd_to_osr_los", "cm_to_rd", "to_dm", "from_dm"} {
		crossings += c["n#/transport/conn#/crossings/"+k]
	}
	put("sub.crossings_per_segment", ratio(crossings, subSegs))
	put("sub.segments_per_MB", ratio(subSegs, mb))
	put("sub.retransmits", c["n#/transport/conn#/rd/retransmits"])
	put("sub.fast_retransmits", c["n#/transport/conn#/rd/fast_retransmits"])
	put("sub.timeouts", c["n#/transport/conn#/rd/timeouts"])
	put("sub.dup_segments", c["n#/transport/conn#/rd/dup_segments"])
	put("sub.window_stalls", c["n#/transport/conn#/osr/window_stalls"])
	put("sub.xmit_to_wire_ns", mean(sp.agg[spanXmitToWire]))
	put("sub.wire_to_app_ns", mean(sp.agg[spanWireToApp]))

	put("mono.segments_per_MB", ratio(mono.counts["n#/transport/tcp/segments_out"], float64(mono.bytes)/1e6))
	put("mono.retransmits", mono.counts["n#/transport/tcp/retransmits"])
	put("mono.timeouts", mono.counts["n#/transport/tcp/timeouts"])
	put("mono.xmit_to_wire_ns", mean(msp.agg[spanXmitToWire]))
	put("mono.wire_to_app_ns", mean(msp.agg[spanWireToApp]))

	put("metrics.instruments", float64(ref.instruments))
	put("metrics.snapshot_ms", ref.snapshotMs)

	put("bufpool.gets", float64(ref.pool.Gets))
	put("bufpool.fresh_ratio", ratio(float64(ref.pool.Fresh), float64(ref.pool.Gets)))
	put("bufpool.oversize", float64(ref.pool.Oversize))

	rc := rtRef.counts
	put("overlay.frames_per_rpc", ratio(rc["n#/overlay/frames_out"], rc["n#/overlay/calls"]))
	put("overlay.retries", rc["n#/overlay/retries"])
	put("overlay.dup_replies", rc["n#/overlay/dup_replies"])

	put("trace.overhead_ratio", ratio(traced.costS(), ref.costS()))
	put("trace.recorder_overhead_ratio", ratio(recorded.costS(), ref.costS()))
	put("trace.top_level_share", ratio(float64(sp.topLevelNs()), float64(sp.wallNs())))
	put("verify.contract_overhead_ratio", ratio(checked.costS(), ref.costS()))
	put("verify.checks", float64(checked.checks))

	speed := ref.hostSpeed
	if speed == 0 {
		// rpc-rt's own phases do not probe; its sim rep does.
		speed = simRef.hostSpeed
	}
	put("host.speed", speed)

	put("go.cpu_s", ref.cpuS)
	put("go.gc_cpu_share", ratio(ref.gcCPUS, ref.cpuS))
	put("go.heap_alloc_MB_per_rep", float64(ref.allocBytes)/1e6)
	put("go.gc_cycles", float64(ref.gcCycles))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	put("go.peak_rss_MB", rss)

	for _, row := range ledgerRows {
		v := led[row.name]
		put(row.name+"_"+row.unit, v.perOp)
		if row.allocs {
			put(row.name+"_allocs", v.allocs)
		}
	}

	// How much of the steady host time the isolated rows account for:
	// engine work for the events that are not link deliveries, the link
	// pipeline per send, the forward per hop, the codec per segment, the
	// registration per instrument and the in-order reassembly per data
	// segment. Everything else — the transports' own logic, timers,
	// congestion control, the driver — is the unattributed share.
	linkSend := led["netsim.link_send"].perOp
	if streamLink(wl).LossProb > 0 {
		linkSend = led["netsim.link_send_impaired"].perOp
	}
	attributed := (events-c["netsim/link#/delivered"])*led["netsim.sched_run"].perOp +
		c["netsim/link#/sent"]*linkSend +
		c["n#/network/forwarding/forwarded"]*led["network.forward"].perOp +
		subSegs*led["tcpwire.sub_marshal"].perOp +
		c["n#/transport/conn#/crossings/from_dm"]*led["tcpwire.sub_unmarshal"].perOp +
		float64(ref.instruments-ref.instrumentsAtStart)*led["metrics.register_at_load"].perOp +
		c["n#/transport/conn#/crossings/rd_to_osr_dat"]*led["seg.reassembly_inorder"].perOp
	put("ledger.unattributed_share", 1-attributed/(ref.hostS()*1e9))

	return &WorkloadResult{Workload: wl, Seed: opts.seed, Scale: opts.scale, Seconds: opts.seconds, Reps: 1, Traced: true,
		Correct: tl.failed == 0 && tl.attempted > 0, Attempted: tl.attempted, Failed: tl.failed,
		SimDigest: tl.digest, Metrics: s.stats(), Notes: tl.notes}, nil
}

// streamLink is the per-hop link a workload's timed phases run over.
func streamLink(wl string) netsim.LinkConfig {
	if wl == wRPC {
		return rpcSpecFor(1).link
	}
	return streamSpecFor(wl, 1).link
}
