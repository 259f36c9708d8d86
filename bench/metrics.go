package main

import "npudvfs/internal/stats"

// metricDef declares one metric the benchmark emits. BENCHMARK.json
// repeats these tables; a unit test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of dvfsd would see, measured with
// tracing off. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression. The timing
// bounds sit at the contract's ceiling: README.md records ten-run sets
// whose medians moved by 10–13 % between one hour and the next on the
// shared reference host, with nothing changed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"strategies_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"valid_share", "ratio", "higher", 0.002},
	{"server_cpu_ms_per_strategy", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.12},
	{"soc_power_saving_pct", "%", "higher", 0.08},
	{"perf_loss_pct", "%", "lower", 0.08},
}

// perLayer are the traced replay's metrics, one group per module.
// Unless the suffix says otherwise a value is mean milliseconds per
// logical request of the workload.
var perLayer = []metricDef{
	{Name: "client.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "client.submit_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "client.poll_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_request", Unit: "count", Better: "lower"},
	{Name: "client.p50_ms.resnet50", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.bert", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.gpt3", Unit: "ms", Better: "lower"},
	{Name: "client.p50_ms.vit", Unit: "ms", Better: "lower"},

	{Name: "traceio.body_kb", Unit: "KB", Better: "lower"},
	{Name: "traceio.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.read_workload_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.fingerprint_calls", Unit: "count", Better: "lower"},
	{Name: "traceio.fingerprint_allocs", Unit: "count", Better: "lower"},
	{Name: "traceio.cachekey_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.write_strategy_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.encode_status_ms", Unit: "ms", Better: "lower"},
	{Name: "traceio.response_kb", Unit: "KB", Better: "lower"},

	{Name: "workload.byname_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.byname_allocs", Unit: "count", Better: "lower"},
	{Name: "workload.trace_ops", Unit: "count", Better: "lower"},

	{Name: "jobstore.add_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.update_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.get_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.writes_per_request", Unit: "count", Better: "lower"},
	{Name: "jobstore.written_kb", Unit: "KB", Better: "lower"},

	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_get_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "server.search_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_model_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_search_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "server.rejects_503", Unit: "count", Better: "lower"},
	{Name: "server.metrics_render_ms", Unit: "ms", Better: "lower"},
	{Name: "server.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "experiments.bundle_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.offline_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.build_models_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.build_self_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.power_profiles_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.timing_profiles_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.models_from_bundle_ms", Unit: "ms", Better: "lower"},

	{Name: "profiler.run_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler.run_power_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler.warmup_iters", Unit: "count", Better: "lower"},

	{Name: "powermodel.build_ms", Unit: "ms", Better: "lower"},
	{Name: "perfmodel.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "perfmodel.models", Unit: "count", Better: "lower"},

	{Name: "classify.trace_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.stages_ms", Unit: "ms", Better: "lower"},
	{Name: "preprocess.stages", Unit: "count", Better: "lower"},

	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.generate_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_evaluator_ms", Unit: "ms", Better: "lower"},
	{Name: "core.new_evaluator_calls", Unit: "count", Better: "lower"},
	{Name: "core.new_evaluator_allocs", Unit: "count", Better: "lower"},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower"},

	{Name: "evaltab.score_ns", Unit: "ns", Better: "lower"},
	{Name: "evaltab.score_batch_ns_per_ind", Unit: "ns", Better: "lower"},

	{Name: "ga.run_ms", Unit: "ms", Better: "lower"},
	{Name: "ga.engine_new_ms", Unit: "ms", Better: "lower"},
	{Name: "ga.engine_run_ms", Unit: "ms", Better: "lower"},
	{Name: "ga.run_allocs", Unit: "count", Better: "lower"},
	{Name: "ga.evaluations", Unit: "count", Better: "lower"},
	{Name: "ga.generations", Unit: "count", Better: "lower"},
	{Name: "ga.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ga.islands", Unit: "count", Better: "higher"},

	{Name: "executor.run_stable_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.iterations", Unit: "count", Better: "lower"},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one reported value. Samples is the number of observations
// behind it (0 where that is not meaningful).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// spanTotals sums span durations (ms) and counts spans by name, and,
// separately, by the name of their parent: the inputs of every
// per-layer mean.
type spanTotals struct {
	millis   map[string]float64
	calls    map[string]float64
	self     map[string]float64
	children map[string]float64 // Σ direct children, keyed by parent name
}

func totalSpans(spans []span) *spanTotals {
	t := &spanTotals{
		millis: make(map[string]float64), calls: make(map[string]float64),
		self: make(map[string]float64), children: make(map[string]float64),
	}
	self := selfMillis(spans)
	for i := range spans {
		s := &spans[i]
		t.millis[s.Name] += s.durMillis()
		t.calls[s.Name]++
		t.self[s.Name] += self[s.ID]
		if s.Parent != 0 {
			t.children[spans[s.Parent-1].Name] += s.durMillis()
		}
	}
	return t
}

// layerMetrics assembles the per-layer values from the traced window,
// the replay and the executor probe. Names absent from the map report
// 0: the layer did not run on this workload.
func layerMetrics(win *windowOut, rp *replayOut, fitMillis, execMillis float64, execIters int) map[string]float64 {
	v := make(map[string]float64)
	n := float64(rp.requests)
	t := totalSpans(rp.spans)
	per := func(name string) float64 { return t.millis[name] / n }

	// Span means, named after the span.
	for metricName, spanName := range map[string]string{
		"client.encode_ms":                  "client.encode",
		"traceio.decode_ms":                 "traceio.decode",
		"traceio.resolve_ms":                "traceio.resolve",
		"traceio.read_workload_ms":          "traceio.read_workload",
		"traceio.fingerprint_ms":            "traceio.fingerprint",
		"traceio.cachekey_ms":               "traceio.cachekey",
		"traceio.write_strategy_ms":         "traceio.write_strategy",
		"traceio.encode_status_ms":          "traceio.encode_status",
		"workload.byname_ms":                "workload.byname",
		"jobstore.add_ms":                   "jobstore.add",
		"jobstore.update_ms":                "jobstore.update",
		"jobstore.get_ms":                   "jobstore.get",
		"server.submit_ms":                  "server.submit",
		"server.search_ms":                  "server.search",
		"server.job_get_ms":                 "server.job_get",
		"experiments.build_models_ms":       "experiments.build_models",
		"experiments.power_profiles_ms":     "experiments.power_profiles",
		"experiments.timing_profiles_ms":    "experiments.timing_profiles",
		"experiments.models_from_bundle_ms": "experiments.models_from_bundle",
		"profiler.run_ms":                   "profiler.run",
		"profiler.run_power_ms":             "profiler.run_power",
		"profiler.warmup_ms":                "profiler.warmup",
		"powermodel.build_ms":               "powermodel.build",
		"perfmodel.fit_ms":                  "perfmodel.fit",
		"classify.trace_ms":                 "classify.trace",
		"preprocess.stages_ms":              "preprocess.stages",
		"core.generate_ms":                  "core.generate",
		"core.new_evaluator_ms":             "core.new_evaluator",
		"core.predict_ms":                   "core.predict",
		"ga.run_ms":                         "ga.run",
		"ga.engine_new_ms":                  "ga.engine_new",
		"ga.engine_run_ms":                  "ga.engine_run",
	} {
		v[metricName] = per(spanName)
	}
	v["traceio.fingerprint_calls"] = t.calls["traceio.fingerprint"] / n
	v["core.new_evaluator_calls"] = t.calls["core.new_evaluator"] / n
	v["experiments.build_self_ms"] = t.self["experiments.build_models"] / n
	v["core.generate_self_ms"] = t.self["core.generate"] / n
	v["experiments.offline_ms"] = rp.offlineMillis

	// What the server spent that the mirror does not account for.
	v["server.submit_self_ms"] = per("server.submit") - t.children["mirror.submit"]/n
	v["server.job_self_ms"] = per("server.search") - t.children["mirror.generate"]/n
	if served := t.millis["server.submit"] + t.millis["server.search"]; served > 0 {
		v["trace.coverage"] = (t.children["mirror.submit"] + t.children["mirror.generate"]) / served
	}

	for _, name := range []string{
		"traceio.body_kb", "traceio.response_kb", "traceio.fingerprint_allocs",
		"workload.byname_allocs", "workload.trace_ops", "jobstore.written_kb",
		"profiler.warmup_iters", "perfmodel.models", "preprocess.stages",
		"core.new_evaluator_allocs", "ga.run_allocs", "ga.evaluations", "ga.generations",
	} {
		v[name] = rp.counts[name] / n
	}
	v["jobstore.writes_per_request"] = rp.counts["jobstore.writes"] / n
	if searches := rp.counts["ga.searches"]; searches > 0 {
		v["ga.islands"] = rp.counts["ga.islands"] / searches
		v["ga.evals_per_s"] = rp.counts["ga.evaluations"] / (t.millis["ga.run"] / 1000)
		v["evaltab.score_ns"] = t.millis["evaltab.score"] * 1e6 / (searches * scoreReps)
		v["evaltab.score_batch_ns_per_ind"] = t.millis["evaltab.score_batch"] * 1e6 / (searches * batchReps * batchSize)
	}
	v["server.metrics_render_ms"] = rp.metricsRenderMillis
	v["experiments.bundle_fit_ms"] = fitMillis
	v["executor.run_stable_ms"] = execMillis
	v["executor.iterations"] = float64(execIters)

	// From the window the replay follows (client round-trip hook on,
	// nothing else traced).
	for name, val := range win.layer {
		v[name] = val
	}
	if base := stats.Mean(win.latencies()); base > 0 {
		v["trace.overhead_pct"] = 100 * (stats.Mean(rp.latencyMillis)/base - 1)
	}
	return v
}
