package main

// metricDef names one metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units (metrics_test.go keeps
// the two in step).
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them; README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for it and names it as unmeasured.
var perLayer = []metricDef{
	// Setup spans around the public calls core.Prepare makes.
	{"prog.load_ms", "ms"},
	{"cfg.profile_ms", "ms"},
	{"cfg.analyze_ms", "ms"},
	{"cfg.build_ms", "ms"},
	{"sigtable.build_ms", "ms"},
	{"sigtable.snapshot_ms", "ms"},
	{"sigserve.fetch_ms", "ms"},
	{"sigserve.publish_ms", "ms"},
	{"prefetch.setup_ms", "ms"},
	{"trace.setup_gap_pct", "%"},
	// Layer ladder rungs: marginal host ms per instance.
	{"cpu.functional_ms", "ms"},
	{"cpu.timing_ms", "ms"},
	{"core.rev_ms", "ms"},
	{"core.pipeline_ms", "ms"},
	{"evidence.ms", "ms"},
	{"telemetry.ms", "ms"},
	{"sigserve.remote_ms", "ms"},
	{"trace.ladder_gap_pct", "%"},
	// Simulated figures and the program's own counters.
	{"core.sim_overhead_pct", "%"},
	{"core.validated_blocks", "count"},
	{"core.validation_stall_cycles", "cycles"},
	{"core.allocs_per_run", "count"},
	{"sigcache.probes", "count"},
	{"sigcache.partial_misses", "count"},
	{"sigcache.complete_misses", "count"},
	{"sigcache.miss_rate", "ratio"},
	{"mem.l1d_miss_rate", "ratio"},
	{"mem.l1i_miss_rate", "ratio"},
	{"mem.l2_miss_rate", "ratio"},
	{"branch.mispredict_rate", "ratio"},
	{"cpu.ipc", "ratio"},
	{"chash.memo_hits", "count"},
	{"chash.memo_misses", "count"},
	{"chash.memo_hit_ratio", "ratio"},
	{"chash.block_ns", "ns"},
	{"sigtable.lookups", "count"},
	{"sigtable.lookup_ns", "ns"},
	{"evidence.encode_ms", "ms"},
	{"evidence.ring_stalls", "count"},
	{"evidence.bytes_per_block", "B/block"},
	{"prefetch.issued", "count"},
	{"prefetch.hits", "count"},
	{"prefetch.late", "count"},
	{"prefetch.misses", "count"},
	{"prefetch.wasted", "count"},
	{"prefetch.accuracy", "ratio"},
	{"prefetch.useful_ratio", "ratio"},
	{"sigserve.lookups", "count"},
	{"sigserve.lookup_us_p50", "us"},
	{"sigserve.lookup_us_tail", "us"},
	{"sigserve.upload_ms", "ms"},
	{"sigserve.queue_wait_us_p50", "us"},
	{"sigserve.batch_size_mean", "count"},
	{"sigserve.coalesced", "count"},
	// The attestation plane under many tenants.
	{"sigserve.server.handle_us_p50.lookup", "us"},
	{"sigserve.server.handle_us_p50.lookup_batch", "us"},
	{"sigserve.server.handle_us_p50.evidence_put", "us"},
	{"sigserve.server.queue_us", "us"},
	{"sigserve.retries", "count"},
	{"sigserve.failures", "count"},
	{"sigserve.delta_hits", "count"},
	{"sigserve.delta_fulls", "count"},
	{"plane.max_rate_ops_s", "ops/s"},
	{"plane.put_ms_p50", "ms"},
	{"plane.lookup_ms_tail", "ms"},
	{"plane.gen_late_us_tail", "us"},
	// Traced against untraced latency_ms_p50 in the same process.
	{"trace.overhead_pct", "%"},
}

// known reports whether name is in defs.
func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
