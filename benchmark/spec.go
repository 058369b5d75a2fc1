package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (a test holds the two
// together); ISSUE 11 fixes the names, and later issues refer to them.

// metricSpec describes one metric. Units say which clock a time is on:
// virt_* units are virtual time of the simulated 1993 machines; ns, us
// and s are host time of the simulator itself.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share by which the metric may get worse before the
	// driver (BENCHMARK.json) rejects a change; end-to-end metrics only.
	bound float64
	// sameSeed is the bound -compare applies between two runs made with
	// the same seed (ISSUE 11's table): virtual results repeat exactly,
	// so they get almost none. 0 means "must not get worse at all".
	sameSeed float64
	// absolute says sameSeed is an absolute difference, not a share of
	// the baseline (the two issue-only metrics, which sit at or near 0).
	absolute bool
}

// endToEnd is what BENCHMARK.json declares as end_to_end. Every
// workload emits every one of them and none is ever 0.
var endToEnd = []metricSpec{
	{name: "wall_us_per_op", unit: "us", better: "lower", bound: 0.25, sameSeed: 0.10},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.08, sameSeed: 0.02},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.18, sameSeed: 0.05},
	{name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.25, sameSeed: 0.10},
	{name: "virt_goodput_kbps", unit: "virt_KB/s", better: "higher", bound: 0.15, sameSeed: 0.001},
	{name: "virt_rtt_us_p50", unit: "virt_us", better: "lower", bound: 0.20, sameSeed: 0.001},
	{name: "virt_rtt_us_p99", unit: "virt_us", better: "lower", bound: 0.20, sameSeed: 0.001},
	{name: "virt_connect_us_p50", unit: "virt_us", better: "lower", bound: 0.20, sameSeed: 0.001},
	{name: "virt_connect_us_p99", unit: "virt_us", better: "lower", bound: 0.20, sameSeed: 0.001},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, sameSeed: 0.20},
}

// issueOnly are the two end-to-end metrics of ISSUE 11 that the
// BENCHMARK.json contract cannot carry: failed_share is always 0 on a
// healthy run (the contract wants metrics that are never 0 and already
// has attempted/failed), and paper_err_pct exists on two workloads only
// (the contract wants every end-to-end metric on every workload). Full
// runs print them and -compare gates them; paper_err_pct is also listed
// in BENCHMARK.json's per_layer.
var issueOnly = []metricSpec{
	{name: "paper_err_pct", unit: "%", better: "lower", sameSeed: 0.1, absolute: true},
	{name: "failed_share", unit: "share", better: "lower", sameSeed: 0, absolute: true},
}

// issueEndToEnd is ISSUE 11's full end-to-end list: what a full run
// prints and -compare gates.
var issueEndToEnd = append(append([]metricSpec(nil), endToEnd...), issueOnly...)

func lo(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, better: "lower"} }
func hi(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, better: "higher"} }

// perLayer is what BENCHMARK.json declares as per_layer: ISSUE 11's 106
// layer metrics plus paper_err_pct. A traced run emits every one; a
// layer a workload does not reach reads 0.
var perLayer = []metricSpec{
	// sim
	lo("sim.events_per_op", "count"),
	lo("sim.wall_ns_per_event", "ns"),
	lo("sim.probe.timer_ns_d1k", "ns"),
	lo("sim.probe.timer_ns_d64k", "ns"),
	lo("sim.probe.proc_handoff_ns", "ns"),
	lo("sim.probe.resource_use_ns", "ns"),
	lo("sim.windows_per_virt_s", "1/virt_s"),
	hi("sim.events_per_window", "count"),
	lo("sim.shard_imbalance", "share"),
	// simnet, fault
	lo("simnet.frames_per_op", "count"),
	lo("simnet.drop_share", "share"),
	hi("simnet.wire_util", "share"),
	lo("simnet.probe.tx_deliver_ns", "ns"),
	lo("fault.injected_per_kframe", "count"),
	// kern
	lo("kern.wakeups_per_frame", "count"),
	hi("kern.wakeup_batch_p50", "count"),
	lo("kern.rx_wait_us_p50", "virt_us"),
	lo("kern.rx_wait_us_p99", "virt_us"),
	lo("kern.queue_depth_p99", "count"),
	lo("kern.rx_dropped_share", "share"),
	lo("kern.tx_blocked_per_kframe", "count"),
	lo("kern.virt_us_per_pkt", "virt_us"),
	lo("kern.probe.inject_ns", "ns"),
	// filter
	hi("filter.match_share", "share"),
	hi("filter.steal_share", "share"),
	lo("filter.installed_peak", "count"),
	lo("filter.probe.match_ns_s1", "ns"),
	lo("filter.probe.match_ns_s16", "ns"),
	lo("filter.probe.match_ns_s1024", "ns"),
	lo("filter.probe.steps_per_match_s1024", "count"),
	lo("filter.probe.install_remove_ns_s1024", "ns"),
	lo("filter.probe.chain_eval_ns_r128", "ns"),
	lo("filter.probe.compile_validate_ns", "ns"),
	// dataplane
	lo("dataplane.rx_frames_per_op", "count"),
	lo("dataplane.rewrites_per_frame", "count"),
	lo("dataplane.drop_share", "share"),
	lo("dataplane.ct_flows_peak", "count"),
	lo("dataplane.ct_created_per_conn", "count"),
	lo("dataplane.lb_refused_share", "share"),
	lo("dataplane.virt_ingress_us_r128", "virt_us"),
	lo("dataplane.probe.ingress_ns_r0", "ns"),
	lo("dataplane.probe.ingress_ns_r128", "ns"),
	lo("dataplane.probe.new_flow_ns", "ns"),
	// offload (the NIC engine)
	hi("offload.coalesce_ratio", "ratio"),
	lo("offload.wakeups_per_frame", "count"),
	lo("offload.sw_fallback_share", "share"),
	hi("offload.tso_sends_share", "share"),
	lo("offload.probe.rx_ns", "ns"),
	lo("offload.probe.tx_super_ns", "ns"),
	// stack
	lo("stack.segs_per_op", "count"),
	lo("stack.pure_ack_share", "share"),
	lo("stack.delayed_ack_share", "share"),
	lo("stack.rexmit_share", "share"),
	lo("stack.fast_rexmit_share", "share"),
	lo("stack.dup_ack_share", "share"),
	lo("stack.copied_bytes_per_byte", "ratio"),
	hi("stack.aliased_bytes_per_byte", "ratio"),
	lo("stack.sw_checksum_bytes_per_byte", "ratio"),
	lo("stack.time_wait_peak", "count"),
	hi("stack.cwnd_kib_p50", "KiB"),
	lo("stack.connect_us_p50", "virt_us"),
	lo("stack.virt_us_per_pkt_send", "virt_us"),
	lo("stack.virt_us_per_pkt_recv", "virt_us"),
	// socketapi
	lo("socketapi.calls_per_op", "count"),
	lo("socketapi.virt_us_send_p50", "virt_us"),
	lo("socketapi.virt_us_recv_p50", "virt_us"),
	lo("socketapi.virt_us_connect_p50", "virt_us"),
	lo("socketapi.virt_us_accept_p50", "virt_us"),
	lo("socketapi.virt_us_close_p50", "virt_us"),
	lo("socketapi.virt_us_per_pkt", "virt_us"),
	// architecture columns
	lo("inkernel.wall_us_per_op", "us"),
	lo("inkernel.allocs_per_op", "count"),
	hi("inkernel.virt_goodput_kbps", "virt_KB/s"),
	lo("inkernel.virt_rtt_us_p50", "virt_us"),
	lo("uxserver.wall_us_per_op", "us"),
	lo("uxserver.allocs_per_op", "count"),
	hi("uxserver.virt_goodput_kbps", "virt_KB/s"),
	lo("uxserver.virt_rtt_us_p50", "virt_us"),
	lo("core.wall_us_per_op", "us"),
	lo("core.allocs_per_op", "count"),
	hi("core.virt_goodput_kbps", "virt_KB/s"),
	lo("core.virt_rtt_us_p50", "virt_us"),
	lo("offload.wall_us_per_op", "us"),
	lo("offload.allocs_per_op", "count"),
	hi("offload.virt_goodput_kbps", "virt_KB/s"),
	lo("offload.virt_rtt_us_p50", "virt_us"),
	// core (the OS server)
	lo("core.migrations_per_conn", "count"),
	lo("core.returns_per_conn", "count"),
	lo("core.orphans_aborted_share", "share"),
	lo("core.sessions_peak", "count"),
	lo("core.ports_in_use_peak", "count"),
	lo("core.frag_forwards_per_kframe", "count"),
	// mbuf, wire
	lo("mbuf.probe.alloc_release_ns", "ns"),
	lo("mbuf.probe.prepend_ns", "ns"),
	lo("mbuf.probe.copyregion_ns", "ns"),
	lo("mbuf.probe.allocs_per_cycle", "count"),
	lo("wire.probe.checksum_ns_per_kib", "ns"),
	lo("wire.probe.copy_and_sum_ns_per_kib", "ns"),
	lo("wire.probe.parse_ns", "ns"),
	lo("wire.probe.fixup_ns", "ns"),
	// router, metrics, trace
	lo("router.fwd_per_op", "count"),
	lo("router.drop_share", "share"),
	lo("metrics.items", "count"),
	lo("metrics.probe.snapshot_us", "us"),
	lo("trace.records_per_op", "count"),
	lo("trace.overhead_pct", "%"),
	// ISSUE 11's end-to-end fidelity metric (see issueOnly).
	lo("paper_err_pct", "%"),
}

// runSeconds is BENCHMARK.json's run_seconds: the timed part of a run.
const runSeconds = 10

// workloadWhy is each workload's one-line reason, as BENCHMARK.json
// carries it; the README has the full paragraph.
var workloadWhy = map[string]string{
	"bulk":       "Table 2/3 throughput: one connection of full-size segments, so stack, mbuf, wire, kern, simnet and sim do the work; filter and dataplane do almost none",
	"bulk-lossy": "the same transfer under seeded loss, reorder and duplication: stack and offload on their slow path (RTO, fast retransmit, reassembly, LRO gap-flush)",
	"rpc":        "Table 2 latency: 1-byte ping-pongs, so byte costs vanish and the socket crossing, kern wakeups and sim proc hand-offs dominate",
	"manyflows":  "1024 sessions on one host: the only workload where rx demultiplexing works hard (filter.Set.Match runs O(sessions) programs per frame on core)",
	"vipchain":   "the only workload with a kernel hook: a 128-rule chain, conntrack and NAT run on every frame in both directions on the load balancer",
	"city":       "connection churn at scale: OS-server setup, teardown, migration and orphan paths, filter install/remove, routers, trunks and sim.Group windows over ~500 hosts",
	"proxy":      "the same mbuf and stack layers by reference (chain, splice) instead of by copy, next to the classic copying loop",
}
