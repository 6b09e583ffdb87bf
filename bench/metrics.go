package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same names and units, plus direction
// and bound; TestMetricsMatchSpec keeps the two in step.
type metricDef struct {
	name string
	unit string
	// exact marks a count that must repeat exactly for a given workload
	// and seed (⟂ in the README): -compare reports any difference.
	exact bool
}

// Every workload reports every end-to-end metric; the README glossary says
// what each one means on each workload.
var endToEnd = []metricDef{
	{name: "points_per_s", unit: "points/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "cpu_s_per_mpoint", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// Per-layer metrics come from the traced run. A layer a workload does not
// exercise did no work there and reports 0.
var perLayer = []metricDef{
	// core, pool and the store decorator (mine-*).
	{name: "core.sweep_s", unit: "s"},
	{name: "core.sweep_w1_s", unit: "s"},
	{name: "core.self_s", unit: "s"},
	{name: "core.benchmark_ms", unit: "ms"},
	{name: "core.candidates_ms", unit: "ms"},
	{name: "core.hwmt_ms", unit: "ms"},
	{name: "core.merge_ms", unit: "ms"},
	{name: "core.extend_ms", unit: "ms"},
	{name: "core.validate_ms", unit: "ms"},
	{name: "core.benchmark_points", unit: "count", exact: true},
	{name: "core.hop_windows", unit: "count", exact: true},
	{name: "core.prevalidation", unit: "count", exact: true},
	{name: "core.convoys", unit: "count", exact: true},
	{name: "core.allocs_per_pass", unit: "count"},
	{name: "core.alloc_mb_per_pass", unit: "MB"},
	{name: "core.gain_over_vcodastar", unit: "x"},
	{name: "pool.speedup", unit: "x"},
	{name: "store.snapshot_calls", unit: "count", exact: true},
	{name: "store.fetch_calls", unit: "count", exact: true},
	{name: "store.points_read", unit: "count", exact: true},
	{name: "store.points_read_frac", unit: "frac", exact: true},
	{name: "store.snapshot_s", unit: "s"},
	{name: "store.fetch_s", unit: "s"},
	{name: "trace.overhead_frac", unit: "frac"},
	// lsm and relational (mine-lsmt).
	{name: "lsm.bytes_read", unit: "bytes"},
	{name: "lsm.seeks", unit: "count"},
	{name: "lsm.points_scanned", unit: "count"},
	{name: "lsm.block_cache_hit_rate", unit: "frac"},
	{name: "lsm.bloom_hit_rate", unit: "frac"},
	{name: "lsm.tables", unit: "count"},
	{name: "lsm.write_dataset_s", unit: "s"},
	{name: "lsm.disk_bytes_per_point", unit: "bytes"},
	{name: "relational.sweep_s", unit: "s"},
	{name: "relational.write_dataset_s", unit: "s"},
	{name: "relational.disk_bytes_per_point", unit: "bytes"},
	// batchframe and server (serve-*).
	{name: "batchframe.encode_ns_per_point", unit: "ns"},
	{name: "batchframe.decode_ns_per_point", unit: "ns"},
	{name: "batchframe.bytes_per_point", unit: "bytes", exact: true},
	{name: "server.accept_us_per_batch", unit: "us"},
	{name: "server.restart_s", unit: "s"},
	{name: "server.cores_used", unit: "cores"},
	{name: "server.shard_feed_skew", unit: "x"},
	{name: "server.http_429", unit: "count"},
	{name: "server.late_dropped", unit: "count"},
	{name: "server.ticks_mined", unit: "count", exact: true},
	{name: "server.closed_total.convoy", unit: "count", exact: true},
	{name: "server.closed_total.flock", unit: "count", exact: true},
	{name: "server.closed_total.mc", unit: "count", exact: true},
	{name: "server.shutdown_s", unit: "s"},
	{name: "server.heap_alloc_mb", unit: "MB"},
	// dbscan and the streaming miners (serve-ingest).
	{name: "dbscan.inc_step_us.moving", unit: "us"},
	{name: "dbscan.inc_step_us.parked", unit: "us"},
	{name: "dbscan.scratch_step_us.moving", unit: "us"},
	{name: "dbscan.scratch_step_us.parked", unit: "us"},
	{name: "dbscan.grid_queries_per_tick.moving", unit: "count", exact: true},
	{name: "dbscan.grid_queries_per_tick.parked", unit: "count", exact: true},
	{name: "dbscan.recomputed_per_tick.moving", unit: "count", exact: true},
	{name: "dbscan.recomputed_per_tick.parked", unit: "count", exact: true},
	{name: "dbscan.fallbacks", unit: "count", exact: true},
	{name: "cmc.step_us.moving", unit: "us"},
	{name: "cmc.step_us.parked", unit: "us"},
	{name: "cmc.closed_per_tick", unit: "count", exact: true},
	{name: "flock.step_us", unit: "us"},
	{name: "movingcluster.step_us", unit: "us"},
	// convoylog and archive (serve-*).
	{name: "convoylog.append_ns_per_record", unit: "ns"},
	{name: "convoylog.bytes_per_record", unit: "bytes", exact: true},
	{name: "convoylog.sync_ms", unit: "ms"},
	{name: "convoylog.scan_s", unit: "s"},
	{name: "archive.addbatch_us_per_record", unit: "us"},
	{name: "archive.flush_ms", unit: "ms"},
	{name: "archive.disk_bytes_per_record", unit: "bytes"},
	{name: "archive.backfill_s", unit: "s"},
	{name: "archive.query_time_us", unit: "us"},
	{name: "archive.query_object_us", unit: "us"},
	{name: "archive.query_convoys_us", unit: "us"},
	{name: "archive.entries_scanned_per_result", unit: "count"},
	{name: "archive.block_cache_hit_rate", unit: "frac"},
	{name: "archive.bloom_hit_rate", unit: "frac"},
	// What the client of the child convoyd saw (serve-*; diagnostics).
	{name: "client.build_s", unit: "s"},
	{name: "client.sched_late_p99_ms", unit: "ms"},
	{name: "client.ingest_p50_ms", unit: "ms"},
	{name: "client.ingest_p99_ms", unit: "ms"},
	{name: "client.query_p50_ms", unit: "ms"},
	{name: "client.query_p99_ms", unit: "ms"},
	{name: "client.query_p50_ms.time", unit: "ms"},
	{name: "client.query_p50_ms.object", unit: "ms"},
	{name: "client.query_p50_ms.convoys", unit: "ms"},
	{name: "client.close_lag_p50_ms", unit: "ms"},
	{name: "client.close_lag_p99_ms", unit: "ms"},
}

// listed reports whether either list names the metric. A run may measure
// a few metrics of the list it does not print on its way.
func listed(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

func isExact(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return d.exact
		}
	}
	return false
}
