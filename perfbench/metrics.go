package main

// metricSpec is one metric as BENCHMARK.json declares it (the test in
// spec_test.go keeps the two lists identical).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
}

// endToEnd are printed by every --trace 0 run, on every workload. An
// operation is one sort request through the workload's entry point: a
// SortFile call, a ClusterSortFile call, or a job from submit to done.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"sort_s", "s", "lower", 0.24},
	{"job_p50_s", "s", "lower", 0.24},
	{"job_p90_s", "s", "lower", 0.24},
	{"jobs_per_s", "1/s", "higher", 0.24},
	{"cpu_s", "s", "lower", 0.24},
	{"heap_peak_mb", "MiB", "lower", 0.2},
	{"scratch_per_input", "B/B", "lower", 0.1},
	{"model_io_ratio", "x", "lower", 0.1},
	{"wire_per_input", "B/B", "lower", 0.02},
}

// perLayer are printed by every --trace 1 run. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metricSpec{
	{Name: "record.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "record.decode_ns_per_rec", Unit: "ns", Better: "lower"},

	{Name: "pram.radix_base_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pram.radix_memload_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "pram.radix_alloc_kb_per_call", Unit: "KiB", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},

	{Name: "core.run_formation_s", Unit: "s", Better: "lower"},
	{Name: "core.distribute_tracks_s", Unit: "s", Better: "lower"},
	{Name: "core.partition_s", Unit: "s", Better: "lower"},
	{Name: "core.base_case_s", Unit: "s", Better: "lower"},
	{Name: "core.passes", Unit: "count", Better: "lower"},
	{Name: "core.depth", Unit: "count", Better: "lower"},
	{Name: "core.read_ratio", Unit: "x", Better: "lower"},
	{Name: "core.inmem_sort_s", Unit: "s", Better: "lower"},

	{Name: "balance.repair_s", Unit: "s", Better: "lower"},
	{Name: "balance.repairs", Unit: "count", Better: "lower"},

	{Name: "pdm.stripe_write_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "pdm.stripe_read_mb_s", Unit: "MiB/s", Better: "higher"},
	{Name: "diskio.busy_s", Unit: "s", Better: "lower"},
	{Name: "diskio.bytes_per_input", Unit: "B/B", Better: "lower"},
	{Name: "diskio.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "diskio.coalesce_ratio", Unit: "blocks", Better: "higher"},
	{Name: "diskio.queue_max", Unit: "count", Better: "lower"},
	{Name: "diskio.retries", Unit: "count", Better: "lower"},
	{Name: "diskio.flush_s", Unit: "s", Better: "lower"},

	{Name: "cluster.scatter_s", Unit: "s", Better: "lower"},
	{Name: "cluster.histogram_merge_s", Unit: "s", Better: "lower"},
	{Name: "cluster.plan_s", Unit: "s", Better: "lower"},
	{Name: "cluster.exchange_s", Unit: "s", Better: "lower"},
	{Name: "cluster.gather_s", Unit: "s", Better: "lower"},
	{Name: "cluster.local_sort_s", Unit: "s", Better: "lower"},
	{Name: "cluster.drain_s", Unit: "s", Better: "lower"},
	{Name: "cluster.scatter_wire_mb", Unit: "MiB", Better: "lower"},
	{Name: "cluster.exchange_wire_mb", Unit: "MiB", Better: "lower"},
	{Name: "cluster.gather_wire_mb", Unit: "MiB", Better: "lower"},
	{Name: "cluster.drain_wire_mb", Unit: "MiB", Better: "lower"},
	{Name: "cluster.shard_imbalance", Unit: "x", Better: "lower"},
	{Name: "cluster.exchange_blocks", Unit: "count", Better: "lower"},
	{Name: "cluster.worker_shard_sort_s", Unit: "s", Better: "lower"},
	{Name: "cluster.release_ms", Unit: "ms", Better: "lower"},

	{Name: "jobs.submit_s", Unit: "s", Better: "lower"},
	{Name: "jobs.status_s", Unit: "s", Better: "lower"},
	{Name: "jobs.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "jobs.run_small_s", Unit: "s", Better: "lower"},
	{Name: "jobs.run_large_s", Unit: "s", Better: "lower"},
	{Name: "jobs.journal_commits", Unit: "count", Better: "lower"},
	{Name: "jobs.refused", Unit: "count", Better: "lower"},
	{Name: "jobs.latency_samples", Unit: "count", Better: "higher"},
	{Name: "jobs.server_log_lines", Unit: "count", Better: "lower"},

	{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
}
