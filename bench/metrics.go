package main

// metricSpec declares one metric of BENCHMARK.json. bound (end-to-end
// only) is the share of the baseline median by which the metric may worsen
// before -compare calls it regressed; bench_test.go pins this table to
// BENCHMARK.json so the two cannot drift.
type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd are the metrics a user of engine.Run or runsvc feels. Every one
// is measured on every workload (a "job" is one matching run: an engine.Run
// call on the pipeline workloads, a submitted service job on svc-journal),
// because the driver reads every end-to-end metric from every run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pairs_per_s", "1/s", "higher", 0.25},
	{"job_p50_s", "s", "lower", 0.25},
	{"alloc_bytes_per_pair", "B", "lower", 0.05},
	{"allocs_per_pair", "count", "lower", 0.05},
	{"f1", "%", "higher", 0.01},
	{"crowd_cost_usd", "USD", "lower", 0.01},
}

// featureKinds are the similarity measures of internal/feature, one
// feature.compute_ns.<kind> metric each.
var featureKinds = []string{
	"exact", "jaro_winkler", "edit", "jaccard_w", "jaccard_3g",
	"monge_elkan", "overlap_w", "tfidf_cos", "rel_diff", "abs_diff",
}

// perLayer are the traced run's metrics, layer = package name. A metric
// that does not apply to a workload (runsvc.* on a pipeline workload,
// simindex.* off Citations) reads 0 there. They carry no bound.
var perLayer = append([]metricSpec{
	{name: "trace.staged_s", unit: "s", better: "lower"},
	{name: "trace.untraced_s", unit: "s", better: "lower"},
	{name: "trace.overhead_frac", unit: "1", better: "lower"},
	{name: "feature.extractor_build_s", unit: "s", better: "lower"},
	{name: "feature.extractor_alloc_bytes", unit: "B", better: "lower"},
	{name: "blocker.run_s", unit: "s", better: "lower"},
	{name: "blocker.learn_s", unit: "s", better: "lower"},
	{name: "blocker.apply_s", unit: "s", better: "lower"},
	{name: "blocker.scan_pairs_per_s", unit: "1/s", better: "higher"},
	{name: "blocker.shard_tasks", unit: "count", better: "higher"},
	{name: "blocker.indexed_runs", unit: "count", better: "higher"},
	{name: "blocker.runs", unit: "count", better: "higher"},
	{name: "blocker.umbrella_pairs", unit: "count", better: "lower"},
	{name: "blocker.reduction_ratio", unit: "1", better: "higher"},
	{name: "blocker.recall", unit: "1", better: "higher"},
	{name: "feature.sample_vectors_s", unit: "s", better: "lower"},
	{name: "feature.vectors_s", unit: "s", better: "lower"},
	{name: "feature.vectors_ns_per_pair", unit: "ns", better: "lower"},
	{name: "matcher.run_s", unit: "s", better: "lower"},
	{name: "active.iterations", unit: "count", better: "lower"},
	{name: "forest.train_ns_per_example", unit: "ns", better: "lower"},
	{name: "forest.score_ns_per_vec", unit: "ns", better: "lower"},
	{name: "ruleeval.make_candidates_s", unit: "s", better: "lower"},
	{name: "ruleeval.alloc_bytes", unit: "B", better: "lower"},
	{name: "estimator.estimate_s", unit: "s", better: "lower"},
	{name: "estimator.labels", unit: "count", better: "lower"},
	{name: "locator.locate_s", unit: "s", better: "lower"},
	{name: "locator.difficult_pairs", unit: "count", better: "lower"},
	{name: "crowd.questions", unit: "count", better: "lower"},
	{name: "crowd.answers", unit: "count", better: "lower"},
	{name: "crowd.wait_s", unit: "s", better: "lower"},
	{name: "simindex.build_s", unit: "s", better: "lower"},
	{name: "simindex.probe_ns_per_row", unit: "ns", better: "lower"},
	{name: "simindex.candidates_per_probe", unit: "count", better: "lower"},
	{name: "simindex.footprint_bytes", unit: "B", better: "lower"},
	{name: "shard.local_probe_s", unit: "s", better: "lower"},
	{name: "shard.merge_ns_per_pair", unit: "ns", better: "lower"},
	{name: "shard.index_peak_bytes", unit: "B", better: "lower"},
	{name: "shard.remote_probe_s", unit: "s", better: "lower"},
	{name: "shard.wire_bytes_per_task", unit: "B", better: "lower"},
	{name: "shard.tasks", unit: "count", better: "lower"},
	{name: "shard.retries", unit: "count", better: "lower"},
	{name: "runsvc.jobs_per_s", unit: "1/s", better: "higher"},
	{name: "runsvc.job_p95_s", unit: "s", better: "lower"},
	{name: "runsvc.queue_wait_s", unit: "s", better: "lower"},
	{name: "runsvc.exec_s", unit: "s", better: "lower"},
	{name: "runsvc.nojournal_job_p50_s", unit: "s", better: "lower"},
	{name: "runsvc.journal_overhead_s", unit: "s", better: "lower"},
	{name: "runsvc.resume_p50_s", unit: "s", better: "lower"},
	{name: "runsvc.journal_bytes_per_job", unit: "B", better: "lower"},
	{name: "runsvc.log_bytes_per_job", unit: "B", better: "lower"},
	{name: "runsvc.snapshots_per_job", unit: "count", better: "lower"},
	{name: "runsvc.snapshot_bytes_per_job", unit: "B", better: "lower"},
	{name: "runsvc.write_amplification", unit: "1", better: "lower"},
	{name: "runsvc.disk_bytes_per_job", unit: "B", better: "lower"},
	{name: "runsvc.replay_bytes_per_job", unit: "B", better: "lower"},
	{name: "runsvc.resume_repaid_questions", unit: "count", better: "lower"},
	{name: "runsvc.submits_shed", unit: "count", better: "lower"},
	{name: "runsvc.jobs_failed", unit: "count", better: "lower"},
}, computeMetrics()...)

// computeMetrics is one feature.compute_ns.<kind> metric per feature kind.
func computeMetrics() []metricSpec {
	out := make([]metricSpec, len(featureKinds))
	for i, k := range featureKinds {
		out[i] = metricSpec{name: "feature.compute_ns." + k, unit: "ns", better: "lower"}
	}
	return out
}
