package main

// metricSpec declares one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json repeats them (the self-test fails on
// any drift), an untraced run prints exactly endToEnd, a traced run prints
// exactly perLayer.
type metricSpec struct {
	Name, Unit string
}

// endToEnd is what a user of the system would see. For the two training
// workloads ops_per_s counts trained positive edges (a step trains one batch
// of them); latencies, cpu_ms_per_op and allocs_per_op are per step.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"side_ops_per_s", "1/s"},
	{"side_op_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"rss_mb_peak", "MB"},
	{"ok_share", "share"},
	{"quality_score", "MRR"},
}

// perLayer metrics are named <module>.<metric> after the internal package
// whose public functions the number was measured around. A metric whose
// layer the workload never enters reports 0.
var perLayer = []metricSpec{
	{"datasets.generate_ms", "ms"},
	{"tgraph.tcsr_build_ms", "ms"},
	{"tgraph.add_ns_per_event", "ns"},
	{"tgraph.snapshot_us", "us"},

	{"sampler.sample_us_per_target", "us"},
	{"sampler.targets_per_op", "count"},
	{"sampler.calls_per_op", "count"},
	{"sampler.filled_share", "share"},
	{"device.launch_us", "us"},

	{"featstore.slice_us_per_krow", "us"},
	{"featstore.rows_per_op", "count"},
	{"featstore.hit_share", "share"},
	{"featstore.modeled_ms_per_op", "ms"},
	{"featstore.pcie_bytes_per_op", "B"},
	{"cache.access_ns", "ns"},

	{"adaptive.select_ms_per_op", "ms"},
	{"adaptive.cotrain_ms_per_op", "ms"},
	{"adaptive.selector_us_per_op", "us"},
	{"adaptive.candidates_per_op", "count"},

	{"models.forward_ms_per_op", "ms"},
	{"models.score_us_per_op", "us"},
	{"autograd.backward_ms_per_op", "ms"},
	{"nn.adam_ms_per_op", "ms"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.flops_per_op", "FLOP"},
	{"tensor.bytes_per_op", "B"},

	{"train.build_ms_per_op", "ms"},
	{"train.nf_share", "share"},
	{"train.fs_share", "share"},
	{"train.as_share", "share"},
	{"train.pp_share", "share"},
	{"train.infer_build_us_per_root", "us"},
	{"train.pipeline_overlap_share", "share"},

	{"serve.engine_ms_p50", "ms"},
	{"serve.batch_wait_ms_p50", "ms"},
	{"serve.batch_roots_avg", "count"},
	{"serve.cache_hit_share", "share"},
	{"serve.cache_stale_share", "share"},
	{"serve.http_overhead_us_p50", "us"},
	{"serve.snapshots_per_s", "1/s"},
	{"serve.ingest_us_per_event", "us"},

	{"overload.gate_ns_per_req", "ns"},
	{"overload.shed_share", "share"},
	{"wal.append_us_per_event", "us"},
	{"wal.sync_ms_p50", "ms"},
	{"wal.syncs_per_kevent", "count"},

	{"host.probe_ms_p50", "ms"},
	{"host.probe_ms_max", "ms"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_share", "share"},
}

// metrics is one run's measured values by metric name.
type metrics map[string]float64

// add folds src into m (layer probes return their own small maps).
func (m metrics) add(src metrics) {
	for k, v := range src {
		m[k] = v
	}
}
