package main

// metricDef names one reported metric. The tables below are the single
// source of the benchmark's metric names and units: main prints them,
// BENCHMARK.json lists them (the smoke test checks the two agree), and
// METRICS.md explains each.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the aggregator sees. Every workload
// reports every one of them (see METRICS.md for what each means on a
// closed-loop workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"slot_ms_p50", "ms", "lower"},
	{"slot_ms_p90", "ms", "lower"},
	{"query_slots_per_s", "1/s", "higher"},
	{"final_ms_p50.low", "ms", "lower"},
	{"final_ms_p99.low", "ms", "lower"},
	{"final_ms_p50.high", "ms", "lower"},
	{"final_ms_p99.high", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the traced run's per-module metrics. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"ps.offer_gather_ms", "ms", "lower"},
	{"ps.route_ms", "ms", "lower"},
	{"ps.shard_select_ms", "ms", "lower"},
	{"ps.spanning_ms", "ms", "lower"},
	{"ps.reconcile_ms", "ms", "lower"},
	{"ps.commit_ms", "ms", "lower"},
	{"ps.accounting_ms", "ms", "lower"},
	{"ps.selection_ms", "ms", "lower"},
	{"ps.lane_select_ms_max", "ms", "lower"},
	{"ps.lane_skew", "ratio", "lower"},
	{"ps.submit_us_p50", "us", "lower"},
	{"ps.submit_us_p99", "us", "lower"},
	{"core.valuation_calls_per_slot", "count", "lower"},
	{"core.calls_saved_ratio", "ratio", "higher"},
	{"core.lazy_reevals_per_slot", "count", "lower"},
	{"core.fallback_rescans", "count", "lower"},
	{"core.geom_hit_ratio", "ratio", "higher"},
	{"engine.ingest_ms", "ms", "lower"},
	{"engine.publish_ms", "ms", "lower"},
	{"engine.slot_ms", "ms", "lower"},
	{"engine.queue_depth_max", "count", "lower"},
	{"engine.events_dropped", "count", "lower"},
	{"engine.gap_events", "count", "lower"},
	{"serve.batch_ms_p50", "ms", "lower"},
	{"serve.batch_ms_p99", "ms", "lower"},
	{"serve.watch_ms_p50", "ms", "lower"},
	{"serve.rejects", "count", "lower"},
	{"psclient.submit_batch_ms_p50", "ms", "lower"},
	{"psclient.delivery_ms_p50", "ms", "lower"},
	{"psclient.delivery_ms_p99", "ms", "lower"},
	{"psclient.reconnects", "count", "lower"},
	{"wire.http_bytes_per_query", "bytes", "lower"},
	{"wire.cluster_bytes_per_slot", "bytes", "lower"},
	{"wire.cluster_frames_per_slot", "count", "lower"},
	{"cluster.lane_rpc_ms", "ms", "lower"},
	{"cluster.node_service_ms", "ms", "lower"},
	{"cluster.transport_ms", "ms", "lower"},
	{"cluster.gather_ms", "ms", "lower"},
	{"cluster.membership_ms", "ms", "lower"},
	{"proc.cpu_ms_per_slot", "ms", "lower"},
	{"proc.cpu_us_per_query", "us", "lower"},
	{"proc.allocs_per_slot", "count", "lower"},
	{"proc.alloc_mb_per_slot", "MB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.heap_slope_kb_per_100slots", "KB", "lower"},
	{"gen.late_ms_max", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
