package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestMetricNamesMatchBenchmarkJSON keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p95_s", "s", "lower"},
}

// perLayer is what a traced run reports, on every workload. A layer the
// workload does not exercise reads 0 (see README.md for which layer each
// workload reaches). Counts and times are per timed round unless the
// name says otherwise.
var perLayer = []metricDef{
	// pipeline cycle loop (+trace, cache)
	{"pipeline.cycles_per_s.ilp2", "1/s", "higher"},
	{"pipeline.cycles_per_s.mem2", "1/s", "higher"},
	{"pipeline.fetch_share", "%", "lower"},
	{"pipeline.dispatch_share", "%", "lower"},
	{"pipeline.issue_share", "%", "lower"},
	{"pipeline.writeback_share", "%", "lower"},
	{"pipeline.commit_share", "%", "lower"},
	{"trace.gen_share", "%", "lower"},
	{"cache.access_share", "%", "lower"},
	// pipeline checkpoint/batch
	{"pipeline.checkpoint_us", "us", "lower"},
	{"pipeline.batch_refill_us", "us", "lower"},
	{"pipeline.batch_cycles_per_s", "1/s", "higher"},
	// core
	{"core.offline_trials", "count", "lower"},
	{"core.offline_trial_cycles_per_s", "1/s", "higher"},
	{"core.hill_moves_tried", "count", "lower"},
	{"core.hill_accept_ratio", "ratio", "higher"},
	{"core.sample_epochs", "count", "lower"},
	// sweep / experiment
	{"sweep.jobs", "count", "lower"},
	{"sweep.memo_hits", "count", "higher"},
	{"sweep.solo_s", "s", "lower"},
	{"sweep.baseline_s", "s", "lower"},
	{"sweep.offline_s", "s", "lower"},
	{"sweep.hill_s", "s", "lower"},
	{"sweep.wait_s", "s", "lower"},
	{"experiment.overhead_s", "s", "lower"},
	{"experiment.offline_gain_vs_icount_pct", "%", "higher"},
	{"experiment.hill_gain_vs_dcra_pct", "%", "higher"},
	// simjob
	{"simjob.run_s", "s", "lower"},
	{"simjob.validate_us", "us", "lower"},
	// serve (+telemetry bridge)
	{"serve.queue_wait_s", "s", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.http_s", "s", "lower"},
	{"serve.recorder_overhead_pct", "%", "lower"},
	{"serve.sse_events_per_job", "count", "lower"},
	{"serve.memo_hit_ratio", "ratio", "higher"},
	{"serve.rejected", "count", "lower"},
	// multicore
	{"multicore.job_s", "s", "lower"},
	{"multicore.migrations", "count", "lower"},
	// fabric
	{"fabric.dispatch_owner", "count", "higher"},
	{"fabric.dispatch_stolen", "count", "lower"},
	{"fabric.dispatch_affinity", "count", "lower"},
	{"fabric.local_fallback", "count", "lower"},
	{"fabric.dispatch_failed", "count", "lower"},
	{"fabric.store_requests", "count", "lower"},
	{"fabric.remote_overhead_s", "s", "lower"},
	// process
	{"process.cpu_s", "s", "lower"},
	{"process.cpu_per_wall", "ratio", "lower"},
	{"process.alloc_mb", "MB", "lower"},
	{"process.gc_cycles", "count", "lower"},
	// the benchmark itself
	{"bench.tracing_overhead_pct", "%", "lower"},
	{"bench.latency_samples", "count", "higher"},
}

func catalog(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
