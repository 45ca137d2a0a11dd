package main

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source; the smoke test checks BENCHMARK.json against them.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (the driver's contract), which is why each workload has reads
// and writes and ends in a timed recovery; see README.md for the two places
// where that shaped a workload, and for the measured spreads the bounds were
// set from.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", "higher", 0.20},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"recovery_s", "s", "lower", 0.20},
	{"space_amp", "ratio", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced pass reports, one group per module of the
// repository. They carry no bound: they say where an end-to-end change came
// from. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// kvserver: the same op stream replayed single-client at four
	// boundaries — B0 tree, B1 one store, B2 router, B3 loopback server —
	// and adjacent medians subtracted. B0 is core.find_ns / core.upsert_ns,
	// so B0 + adapter + router + wire = b3 by construction.
	{name: "kvserver.adapter_get_ns", unit: "ns", better: "lower"},
	{name: "kvserver.adapter_set_ns", unit: "ns", better: "lower"},
	{name: "kvserver.router_get_ns", unit: "ns", better: "lower"},
	{name: "kvserver.router_set_ns", unit: "ns", better: "lower"},
	{name: "kvserver.wire_get_ns", unit: "ns", better: "lower"},
	{name: "kvserver.wire_set_ns", unit: "ns", better: "lower"},
	{name: "kvserver.b3_get_ns", unit: "ns", better: "lower"},
	{name: "kvserver.b3_set_ns", unit: "ns", better: "lower"},
	{name: "kvserver.store_get_allocs_per_op", unit: "count", better: "lower"},
	{name: "kvserver.store_set_allocs_per_op", unit: "count", better: "lower"},
	{name: "kvserver.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "kvserver.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "kvserver.store_errors", unit: "count", better: "lower"},
	{name: "kvserver.protocol_errors", unit: "count", better: "lower"},
	{name: "kvserver.shard_skew", unit: "ratio", better: "lower"},

	// core: direct-call medians on the workload's own keys (the B0 replay),
	// the existing trace.Tracer's phase split at 1-in-64, and tree counters.
	{name: "core.find_ns", unit: "ns", better: "lower"},
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "core.update_ns", unit: "ns", better: "lower"},
	{name: "core.upsert_ns", unit: "ns", better: "lower"},
	{name: "core.delete_ns", unit: "ns", better: "lower"},
	{name: "core.scann100_ns", unit: "ns", better: "lower"},
	{name: "core.iter100_ns", unit: "ns", better: "lower"},
	{name: "core.read_descend_ns", unit: "ns", better: "lower"},
	{name: "core.read_leaf_ns", unit: "ns", better: "lower"},
	{name: "core.write_descend_ns", unit: "ns", better: "lower"},
	{name: "core.write_leaf_ns", unit: "ns", better: "lower"},
	{name: "core.write_smo_ns", unit: "ns", better: "lower"},
	{name: "core.key_probes_per_search", unit: "count", better: "lower"},
	{name: "core.fp_false_positive_ratio", unit: "ratio", better: "lower"},
	{name: "core.splits_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.height", unit: "count", better: "lower"},
	{name: "core.leaf_fill", unit: "ratio", better: "higher"},
	{name: "core.dram_bytes_per_key", unit: "B", better: "lower"},
	{name: "core.scm_bytes_per_key", unit: "B", better: "lower"},
	{name: "core.recovery_leaves", unit: "count", better: "lower"},
	{name: "core.recovery_rebuild_ns", unit: "ns", better: "lower"},
	{name: "core.recovery_fixed_1m_s", unit: "s", better: "lower"},

	// scm: counts per op of the single-client B0 replay (they repeat exactly
	// for a seed), the device time they stand for, and the emulator's own
	// cost per primitive in count mode.
	{name: "scm.flushes_per_write", unit: "count", better: "lower"},
	{name: "scm.fences_per_write", unit: "count", better: "lower"},
	{name: "scm.misses_per_op", unit: "count", better: "lower"},
	{name: "scm.loads_per_op", unit: "count", better: "lower"},
	{name: "scm.stores_per_op", unit: "count", better: "lower"},
	{name: "scm.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "scm.allocs_per_write", unit: "count", better: "lower"},
	{name: "scm.frees_per_write", unit: "count", better: "lower"},
	{name: "scm.flushed_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "scm.charged_ns_per_op", unit: "ns", better: "lower"},
	{name: "scm.device_share", unit: "ratio", better: "lower"},
	{name: "scm.load_hit_ns", unit: "ns", better: "lower"},
	{name: "scm.load_miss_ns", unit: "ns", better: "lower"},
	{name: "scm.persist_line_ns", unit: "ns", better: "lower"},
	{name: "scm.alloc_free_ns", unit: "ns", better: "lower"},
	{name: "scm.load_hit_2t_ns", unit: "ns", better: "lower"},

	// htm: the two-client traced slice.
	{name: "htm.abort_ratio", unit: "ratio", better: "lower"},
	{name: "htm.aborts_leaf_lock_per_kop", unit: "1/kop", better: "lower"},
	{name: "htm.aborts_descend_per_kop", unit: "1/kop", better: "lower"},
	{name: "htm.restarts_per_kop", unit: "1/kop", better: "lower"},
	{name: "htm.fallbacks_per_kop", unit: "1/kop", better: "lower"},
	{name: "htm.final_retry_budget", unit: "count", better: "higher"},

	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},

	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "runtime.heap_inuse_mb", unit: "MB", better: "lower"},

	// harness: what the untraced two-client slice of the traced pass saw.
	// Tail latency did not hold a 15 % bound on the shared 2-core sandbox
	// (README.md has the spreads), so p99 and p99.9 are diagnostics here.
	// Range reads exist in one workload only, and the driver's contract wants
	// every end-to-end metric from every workload, so they are here too.
	{name: "harness.read_p99_us", unit: "us", better: "lower"},
	{name: "harness.write_p99_us", unit: "us", better: "lower"},
	{name: "harness.scan_p50_us", unit: "us", better: "lower"},
	{name: "harness.scan_p99_us", unit: "us", better: "lower"},
	{name: "harness.read_p999_us", unit: "us", better: "lower"},
	{name: "harness.write_p999_us", unit: "us", better: "lower"},
	{name: "harness.host_speed", unit: "ratio", better: "higher"},
}
