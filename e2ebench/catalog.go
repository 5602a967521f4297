package main

// metricDef names one reported metric and its unit. The three lists
// below are the benchmark's vocabulary: every run prints each metric of
// its mode by exactly this name and unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the server sees, reported with
// tracing off on every workload. They are the ones BENCHMARK.json
// bounds, so each is defined (and never 0) on every workload and
// steady enough across runs on a small shared machine to be bounded.
// The timings, and the closed loops' ingest rate, are scaled by the
// steal time of the window they were measured in (see stealLog).
var endToEnd = []metricDef{
	{"ingest_msgs_per_s", "msgs/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"detect_latency_p50_ms", "ms"},
	{"query_latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// endToEndInfo are end-to-end figures printed on the untraced run but
// not bounded. The p99 latencies move by more than any usable bound
// from run to run on a 2-vCPU machine shared with other work;
// failed_frac is the result line's failed/attempted (0 on a healthy
// run); the quality figures exist only where the trace carries ground
// truth (0 elsewhere). The unscaled_ figures are the headline timings
// as measured, before scaling by steal time; steal_share is the median
// over windows of the CPU share the host took.
var endToEndInfo = []metricDef{
	{"ingest_ack_p99_ms", "ms"},
	{"detect_latency_p99_ms", "ms"},
	{"query_latency_p99_ms", "ms"},
	{"failed_frac", "ratio"},
	{"recall", "ratio"},
	{"precision", "ratio"},
	{"event_lag_quanta", "quanta"},
	{"unscaled_ingest_msgs_per_s", "msgs/s"},
	{"unscaled_ingest_ack_p50_ms", "ms"},
	{"unscaled_detect_latency_p50_ms", "ms"},
	{"unscaled_query_latency_p50_ms", "ms"},
	{"steal_share", "ratio"},
}

// perLayer are the traced run's metrics, grouped by the repository
// module whose public functions they time or count. The comment above
// each group names the end-to-end metric, and the workload, that a
// change to that layer should move.
var perLayer = []metricDef{
	// textproc: ingest_msgs_per_s on tw-ingest; about nothing on
	// flood-ingest.
	{"textproc.tokenize_us_per_quantum", "us"},
	{"textproc.intern_us_per_quantum", "us"},
	{"textproc.tokens_per_msg", "count"},

	// akg: ingest_msgs_per_s and detect_latency_p50_ms on tw-ingest.
	{"akg.process_quantum_us_p50", "us"},
	{"akg.process_quantum_us_p99", "us"},
	{"akg.self_us_per_quantum", "us"},
	{"akg.pairs_screened", "count/quantum"},
	{"akg.pairs_passed", "count/quantum"},
	{"akg.screen_pass_ratio", "ratio"},
	{"akg.edge_yield", "ratio"},
	{"akg.edges_removed", "count/quantum"},
	{"akg.edges_updated", "count/quantum"},
	{"akg.dirty_nodes", "count/quantum"},
	{"akg.nodes", "count"},
	{"akg.edges", "count"},

	// core: ingest_msgs_per_s on flood-ingest; not tw-ingest.
	{"core.shadow_us_per_quantum", "us"},
	{"core.ops_per_quantum", "count"},
	{"core.cycle_checks_per_quantum", "count"},
	{"core.merges", "count"},
	{"core.splits", "count"},
	{"core.clusters", "count"},

	// detect: detect_latency_* on every workload; ingest_msgs_per_s on
	// flood-ingest.
	{"detect.quantum_us_p50", "us"},
	{"detect.quantum_us_p99", "us"},
	{"detect.reconcile_us_per_quantum", "us"},
	{"detect.snapshot_us_p50", "us"},
	{"detect.reports_per_quantum", "count"},
	{"detect.lifecycle_deltas_per_quantum", "count"},
	{"detect.live_events", "count"},

	// wal: ingest_ack_* on tw-ingest and flood-ingest.
	{"wal.fsyncs", "count"},
	{"wal.batches_per_fsync", "ratio"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.bytes_per_msg", "bytes"},
	{"wal.writes_per_batch", "ratio"},
	{"wal.snapshot_us", "us"},
	{"wal.snapshot_bytes", "bytes"},

	// archive: query_latency_p99_ms on mixed-read.
	{"archive.records_appended", "count"},
	{"archive.bytes_written", "bytes"},
	{"archive.write_us_total", "us"},
	{"archive.fsyncs", "count"},

	// query (per query): query_latency_* on mixed-read.
	{"query.run_us_p50", "us"},
	{"query.run_us_p99", "us"},
	{"query.segments_scanned", "count"},
	{"query.segments_skipped", "count"},
	{"query.blocks_scanned", "count"},
	{"query.records_scanned", "count"},

	// server and obs: query_latency_* on mixed-read; detect_latency_*
	// on every workload.
	{"server.read_us_p50", "us"},
	{"server.read_us_p99", "us"},
	{"server.query_handler_us_p50", "us"},
	{"server.query_handler_us_p99", "us"},
	{"server.encode_share", "ratio"},
	{"server.response_bytes_per_query", "bytes"},
	{"server.ingest_handler_us_p50", "us"},
	{"server.ingest_handler_us_p99", "us"},
	{"server.queue_depth_max", "count"},
	{"server.sse_bytes_per_frame", "bytes"},
	{"obs.queue_wait_us_mean", "us"},
	{"obs.sched_wait_us_mean", "us"},
	{"obs.snapshot_publish_us_mean", "us"},
	{"obs.sse_fanout_us_mean", "us"},

	// loadgen: the validity of every run.
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.offered_per_s", "1/s"},
	{"loadgen.achieved_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}
