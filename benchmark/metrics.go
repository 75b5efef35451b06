package main

// metricDef names one reported metric and its unit. The lists below
// mirror BENCHMARK.json's end_to_end and per_layer lists; the test in
// metrics_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is reported with --trace 0 on every workload. Each applies
// to all three workloads; on the gateway query_p50_ms is the latency of
// the /search requests the engine answered, not the cache. The
// gateway-only figures (HTTP latency over all requests, write latency,
// recovery) are per-layer metrics because the local and remote
// workloads have no HTTP, writes or disk. The p99 of query latency is a
// per-layer metric too: on a shared 2-core host it moves by more than
// the largest bound allowed between runs of the same code on the
// gateway workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"qps", "1/s"},
}

// perLayer is reported with --trace 1. A layer a workload does not
// exercise (serve and storage outside the gateway workload, RPC outside
// the remote one) reports 0: it did no work.
var perLayer = []metricDef{
	// internal/dist
	{"dist.kernel_ns_per_cell", "ns"},
	{"dist.abandon_ratio", "ratio"},
	{"dist.querybounds_us", "us"},
	// internal/partition, internal/pivot, rptrie build
	{"partition.assign_s", "s"},
	{"pivot.select_s", "s"},
	{"rptrie.build_s", "s"},
	// internal/rptrie replayed per partition
	{"rptrie.search_us_p50", "us"},
	{"rptrie.nodes_expanded", "count"},
	{"rptrie.entries_pushed", "count"},
	{"rptrie.exact_computations", "count"},
	{"rptrie.refine_yield", "ratio"},
	{"rptrie.allocs_per_search.pointer", "count"},
	{"rptrie.allocs_per_search.compressed", "count"},
	{"rptrie.index_mb", "MB"},
	// internal/cluster, from QueryReport and alloc probes
	{"cluster.wall_ms_p50", "ms"},
	{"cluster.scan_sum_ms", "ms"},
	{"cluster.scan_max_ms", "ms"},
	{"cluster.imbalance", "ratio"},
	{"cluster.dispatch_ms", "ms"},
	{"cluster.allocs_per_search", "count"},
	{"cluster.bytes_per_search", "B"},
	{"cluster.rpc_overhead_ms", "ms"},
	{"cluster.rpc_allocs_per_search", "count"},
	// internal/serve, from /metrics and the timing backend
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.backend_calls_per_request", "ratio"},
	{"serve.coalesce_ratio", "ratio"},
	{"serve.batch_mean", "count"},
	{"serve.invalidations_per_write", "ratio"},
	{"serve.evictions", "count"},
	{"serve.backend_ms_p50", "ms"},
	{"serve.backend_ms_p99", "ms"},
	{"serve.rejected", "count"},
	// internal/storage
	{"storage.wchar_per_write", "B"},
	{"storage.syscw_per_write", "count"},
	{"storage.dir_bytes_per_live_byte", "ratio"},
	// tail latency and the gateway's end-to-end figures, measured with
	// tracing off
	{"query_p99_ms", "ms"},
	{"http_p50_ms", "ms"},
	{"http_p99_ms", "ms"},
	{"http_rps", "1/s"},
	{"http_miss_rps", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"recover_s", "s"},
	// load generator honesty
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.succeeded", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.refused", "count"},
	// spans recorded by the benchmark's own code
	{"trace.spans", "count"},
	{"trace.self_ms.http", "ms"},
	{"trace.self_ms.serve_backend", "ms"},
	{"trace.self_ms.cluster", "ms"},
	{"trace.self_ms.partition", "ms"},
	{"trace.overhead_ms", "ms"},
}
