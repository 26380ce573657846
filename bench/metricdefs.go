package main

// The metric tables. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; bench_test.go fails when
// the two disagree.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured in host time
// with tracing, contracts and bufpool debug off; every workload emits
// every one. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"mono_goodput_MBps", "MB/s", "higher", 0.25},
	{"flows_per_s", "1/s", "higher", 0.25},
	{"mono_flows_per_s", "1/s", "higher", 0.25},
	{"sub_mono_cost_ratio", "ratio", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"allocs_per_event", "count", "lower", 0.02},
}

const (
	lo = "lower"
	hi = "higher"
)

// perLayer is the traced run's output, named <layer>.<metric>. Layer
// names are the repository's modules.
var perLayer = []metricDef{
	{Name: "harness.build_ms", Unit: "ms", Better: lo},
	{Name: "harness.converge_events", Unit: "count", Better: lo},

	{Name: "netsim.events", Unit: "count", Better: lo},
	{Name: "netsim.events_per_MB", Unit: "count", Better: lo},
	{Name: "netsim.events_per_flow", Unit: "count", Better: lo},
	{Name: "netsim.pending_events_mean", Unit: "count", Better: lo},
	{Name: "netsim.cancelled_share", Unit: "ratio", Better: lo},
	{Name: "netsim.sched_run_ns", Unit: "ns", Better: lo},
	{Name: "netsim.link_send_ns", Unit: "ns", Better: lo},
	{Name: "netsim.link_send_impaired_ns", Unit: "ns", Better: lo},
	{Name: "netsim.link_lost", Unit: "count", Better: lo},
	{Name: "netsim.link_queue_drop", Unit: "count", Better: lo},
	{Name: "netsim.link_reordered", Unit: "count", Better: lo},
	{Name: "netsim.link_dup", Unit: "count", Better: lo},
	{Name: "netsim.self_s", Unit: "s", Better: lo},

	{Name: "sharded.flows_per_s", Unit: "1/s", Better: hi},
	{Name: "sharded.speedup", Unit: "ratio", Better: hi},
	{Name: "sharded.shard1_overhead_ratio", Unit: "ratio", Better: lo},
	{Name: "sharded.identical", Unit: "count", Better: hi},

	{Name: "rt.rpc_per_s", Unit: "1/s", Better: hi},
	{Name: "rt.rpc_p50_ms", Unit: "ms", Better: lo},
	{Name: "rt.rpc_p99_ms", Unit: "ms", Better: lo},
	{Name: "rt.overhead_p50_us", Unit: "us", Better: lo},
	{Name: "rt.cpu_us_per_rpc", Unit: "us", Better: lo},
	{Name: "rt.sim_cpu_us_per_rpc", Unit: "us", Better: lo},
	{Name: "rt.cpu_ratio_vs_sim", Unit: "ratio", Better: lo},

	{Name: "network.forwarded", Unit: "count", Better: lo},
	{Name: "network.originated", Unit: "count", Better: lo},
	{Name: "network.local_delivered", Unit: "count", Better: lo},
	{Name: "network.control_event_share", Unit: "ratio", Better: lo},
	{Name: "network.forward_ns", Unit: "ns", Better: lo},
	{Name: "network.hop_ns", Unit: "ns", Better: lo},

	{Name: "tcpwire.marshal_ns", Unit: "ns", Better: lo},
	{Name: "tcpwire.marshal_allocs", Unit: "count", Better: lo},
	{Name: "tcpwire.unmarshal_ns", Unit: "ns", Better: lo},
	{Name: "tcpwire.unmarshal_allocs", Unit: "count", Better: lo},
	{Name: "tcpwire.sub_marshal_ns", Unit: "ns", Better: lo},
	{Name: "tcpwire.sub_marshal_allocs", Unit: "count", Better: lo},
	{Name: "tcpwire.sub_unmarshal_ns", Unit: "ns", Better: lo},
	{Name: "tcpwire.sub_unmarshal_allocs", Unit: "count", Better: lo},
	{Name: "tcpwire.shim_roundtrip_ns", Unit: "ns", Better: lo},
	{Name: "tcpwire.shim_roundtrip_allocs", Unit: "count", Better: lo},

	{Name: "sub.app_to_osr", Unit: "count", Better: lo},
	{Name: "sub.osr_to_rd", Unit: "count", Better: lo},
	{Name: "sub.to_dm", Unit: "count", Better: lo},
	{Name: "sub.from_dm", Unit: "count", Better: lo},
	{Name: "sub.rd_to_osr_ack", Unit: "count", Better: lo},
	{Name: "sub.rd_to_osr_dat", Unit: "count", Better: lo},
	{Name: "sub.crossings_per_segment", Unit: "ratio", Better: lo},
	{Name: "sub.segments_per_MB", Unit: "count", Better: lo},
	{Name: "sub.retransmits", Unit: "count", Better: lo},
	{Name: "sub.fast_retransmits", Unit: "count", Better: lo},
	{Name: "sub.timeouts", Unit: "count", Better: lo},
	{Name: "sub.dup_segments", Unit: "count", Better: lo},
	{Name: "sub.window_stalls", Unit: "count", Better: lo},
	{Name: "sub.conn_setup_us", Unit: "us", Better: lo},
	{Name: "sub.conn_setup_allocs", Unit: "count", Better: lo},
	{Name: "sub.conn_setup_at_load_us", Unit: "us", Better: lo},
	{Name: "sub.xmit_to_wire_ns", Unit: "ns", Better: lo},
	{Name: "sub.wire_to_app_ns", Unit: "ns", Better: lo},

	{Name: "mono.segments_per_MB", Unit: "count", Better: lo},
	{Name: "mono.retransmits", Unit: "count", Better: lo},
	{Name: "mono.timeouts", Unit: "count", Better: lo},
	{Name: "mono.conn_setup_us", Unit: "us", Better: lo},
	{Name: "mono.conn_setup_allocs", Unit: "count", Better: lo},
	{Name: "mono.xmit_to_wire_ns", Unit: "ns", Better: lo},
	{Name: "mono.wire_to_app_ns", Unit: "ns", Better: lo},

	{Name: "seg.reassembly_inorder_ns", Unit: "ns", Better: lo},
	{Name: "seg.reassembly_ooo_ns", Unit: "ns", Better: lo},
	{Name: "seg.sendbuf_cycle_ns", Unit: "ns", Better: lo},
	{Name: "seg.rangeset_add_ns", Unit: "ns", Better: lo},

	{Name: "metrics.instruments", Unit: "count", Better: lo},
	{Name: "metrics.register_ns", Unit: "ns", Better: lo},
	{Name: "metrics.register_at_load_ns", Unit: "ns", Better: lo},
	{Name: "metrics.snapshot_ms", Unit: "ms", Better: lo},

	{Name: "bufpool.gets", Unit: "count", Better: lo},
	{Name: "bufpool.fresh_ratio", Unit: "ratio", Better: lo},
	{Name: "bufpool.oversize", Unit: "count", Better: lo},

	{Name: "overlay.frames_per_rpc", Unit: "ratio", Better: lo},
	{Name: "overlay.retries", Unit: "count", Better: lo},
	{Name: "overlay.dup_replies", Unit: "count", Better: lo},
	{Name: "overlay.call_ns", Unit: "ns", Better: lo},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lo},
	{Name: "trace.recorder_overhead_ratio", Unit: "ratio", Better: lo},
	{Name: "trace.top_level_share", Unit: "ratio", Better: hi},
	{Name: "verify.contract_overhead_ratio", Unit: "ratio", Better: lo},
	{Name: "verify.checks", Unit: "count", Better: hi},

	{Name: "host.speed", Unit: "ratio", Better: hi},

	{Name: "go.cpu_s", Unit: "s", Better: lo},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: lo},
	{Name: "go.heap_alloc_MB_per_rep", Unit: "MB", Better: lo},
	{Name: "go.gc_cycles", Unit: "count", Better: lo},
	{Name: "go.peak_rss_MB", Unit: "MB", Better: lo},

	{Name: "datalink.send_ns", Unit: "ns", Better: lo},
	{Name: "stuffing.frame1500_ns", Unit: "ns", Better: lo},

	{Name: "ledger.unattributed_share", Unit: "ratio", Better: lo},
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}
