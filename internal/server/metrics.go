package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"npudvfs/internal/ga"
	"npudvfs/internal/traceio"
)

// Declared label sets, enforced by dvfslint's metricflow analyzer:
// every statically-known label value written into the map-backed
// families below must be a member, so a typo'd state or direction
// can't silently fork a new series. Dynamic values (recovered record
// states, workload names) are exempt by construction.
var (
	jobsTotalLabels    = []string{traceio.JobDone, traceio.JobFailed, traceio.JobCancelled, "cached"}
	forwardsLabels     = []string{"out", "in", "fallback"}
	stageSecondsLabels = []string{"queue", "model", "search"}
)

// metrics is dvfsd's hand-rolled instrumentation, rendered in the
// Prometheus text exposition format by render(). The dependency-free
// subset used here (counters, gauges, fixed-bucket cumulative
// histograms) is all the service needs; pulling in a client library
// would violate the repo's stdlib-only rule.
type metrics struct {
	mu sync.Mutex
	// jobsTotal counts jobs by outcome: terminal state (done, failed,
	// cancelled) plus "cached" for submissions answered from the
	// strategy cache without a search.
	jobsTotal map[string]uint64
	// queueDepth and running are instantaneous gauges.
	queueDepth int
	running    int
	cacheHits  uint64
	cacheMiss  uint64
	// stageSeconds holds one latency histogram per pipeline stage:
	// queue (submit → dequeue), model (profiling + fitting) and search
	// (the GA).
	stageSeconds map[string]*histogram
	// GA throughput instrumentation: cumulative counters across all
	// finished searches, plus per-workload gauges reflecting the most
	// recent job (the operator-facing "how fast is the search engine
	// right now" view).
	gaEvals      uint64
	gaGens       uint64
	gaMigrations uint64
	// gaIslands is the island count of the most recently finished
	// search — the fan-out the engine actually chose (it defaults from
	// GOMAXPROCS when the spec leaves it unset).
	gaIslands int
	gaJobs    map[string]gaJobStats
	// Cluster instrumentation: forwards by direction ("out" proxied to
	// the owner, "in" received from a peer, "fallback" owner unreachable
	// and served locally), job-store durability errors, and the number
	// of unfinished jobs recovered at boot.
	forwards      map[string]uint64
	storeErrors   uint64
	recoveredJobs int
	// relayErrors counts proxied responses whose body relay to the
	// client broke mid-copy (status already sent, so not retryable).
	relayErrors uint64
}

// gaJobStats is the last finished search's GA throughput for one
// workload. islandEvalsPerSec is indexed by island id; islands run
// concurrently over the worker pool, so each island's rate is its
// evaluation count over the same search wall time.
type gaJobStats struct {
	evalsPerSec       float64
	generations       int
	islandEvalsPerSec []float64
}

// stageBuckets spans sub-millisecond cache bookkeeping to multi-minute
// searches.
var stageBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

type histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []uint64  // per-bucket (non-cumulative) observation counts
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{bounds: stageBuckets, counts: make([]uint64, len(stageBuckets))}
}

func (h *histogram) observe(v float64) {
	h.sum += v
	h.total++
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
}

func newMetrics() *metrics {
	return &metrics{
		jobsTotal:    make(map[string]uint64),
		stageSeconds: make(map[string]*histogram),
		gaJobs:       make(map[string]gaJobStats),
		forwards:     make(map[string]uint64),
	}
}

func (m *metrics) forward(direction string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.forwards[direction]++
}

func (m *metrics) relayError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.relayErrors++
}

func (m *metrics) storeError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeErrors++
}

func (m *metrics) setRecovered(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recoveredJobs = n
}

// observeGA records one finished search's GA counters: cumulative
// totals plus the per-workload last-job gauges. The workload label is
// normalized to lower case — the form requests name workloads in.
// searchSeconds is the GA wall time (the search stage, model building
// excluded).
func (m *metrics) observeGA(workload string, res *ga.Result, searchSeconds float64) {
	workload = strings.ToLower(workload)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gaEvals += uint64(res.Evaluations)
	m.gaGens += uint64(res.Generations)
	m.gaMigrations += uint64(res.Migrations)
	m.gaIslands = res.Islands
	st := gaJobStats{generations: res.Generations}
	if searchSeconds > 0 {
		st.evalsPerSec = float64(res.Evaluations) / searchSeconds
		st.islandEvalsPerSec = make([]float64, len(res.IslandEvaluations))
		for i, ev := range res.IslandEvaluations {
			st.islandEvalsPerSec[i] = float64(ev) / searchSeconds
		}
	}
	m.gaJobs[workload] = st
}

func (m *metrics) jobFinished(state string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal[state]++
}

// jobCached counts a submission answered from the strategy cache. It
// gets its own label under dvfsd_jobs_total instead of inflating
// state="done": done must track completed searches one-to-one with
// the search-latency histogram, or the two series disagree under
// cache-hot traffic.
func (m *metrics) jobCached() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal["cached"]++
}

func (m *metrics) setQueueDepth(depth int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = depth
}

func (m *metrics) runningDelta(d int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running += d
}

func (m *metrics) cacheHit(hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.cacheHits++
	} else {
		m.cacheMiss++
	}
}

func (m *metrics) observeStage(stage string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stageSeconds[stage]
	if !ok {
		h = newHistogram()
		m.stageSeconds[stage] = h
	}
	h.observe(seconds)
}

// snapshotJobs returns a copy of the per-state job counters (used by
// tests and by render).
func (m *metrics) snapshotJobs() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.jobsTotal))
	for k, v := range m.jobsTotal {
		out[k] = v
	}
	return out
}

// render writes the Prometheus text exposition format. Series are
// emitted in sorted label order so the output is deterministic.
func (m *metrics) render(w io.Writer, cacheLen int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP dvfsd_jobs_total Jobs by outcome: terminal search states, plus cached submissions answered without a search.")
	fmt.Fprintln(w, "# TYPE dvfsd_jobs_total counter")
	states := make([]string, 0, len(m.jobsTotal))
	for s := range m.jobsTotal {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(w, "dvfsd_jobs_total{state=%q} %d\n", s, m.jobsTotal[s])
	}

	fmt.Fprintln(w, "# HELP dvfsd_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE dvfsd_queue_depth gauge")
	fmt.Fprintf(w, "dvfsd_queue_depth %d\n", m.queueDepth)

	fmt.Fprintln(w, "# HELP dvfsd_jobs_running Jobs currently in a worker.")
	fmt.Fprintln(w, "# TYPE dvfsd_jobs_running gauge")
	fmt.Fprintf(w, "dvfsd_jobs_running %d\n", m.running)

	fmt.Fprintln(w, "# HELP dvfsd_cache_hits_total Strategy cache hits.")
	fmt.Fprintln(w, "# TYPE dvfsd_cache_hits_total counter")
	fmt.Fprintf(w, "dvfsd_cache_hits_total %d\n", m.cacheHits)
	fmt.Fprintln(w, "# HELP dvfsd_cache_misses_total Strategy cache misses.")
	fmt.Fprintln(w, "# TYPE dvfsd_cache_misses_total counter")
	fmt.Fprintf(w, "dvfsd_cache_misses_total %d\n", m.cacheMiss)
	fmt.Fprintln(w, "# HELP dvfsd_cache_entries Strategies currently cached.")
	fmt.Fprintln(w, "# TYPE dvfsd_cache_entries gauge")
	fmt.Fprintf(w, "dvfsd_cache_entries %d\n", cacheLen)

	fmt.Fprintln(w, "# HELP dvfsd_cluster_forwards_total Proxied submissions/polls: out to the key owner, in from a peer, fallback served locally with the owner unreachable.")
	fmt.Fprintln(w, "# TYPE dvfsd_cluster_forwards_total counter")
	dirs := make([]string, 0, len(m.forwards))
	for d := range m.forwards {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		fmt.Fprintf(w, "dvfsd_cluster_forwards_total{direction=%q} %d\n", d, m.forwards[d])
	}

	fmt.Fprintln(w, "# HELP dvfsd_relay_errors_total Proxied responses whose body relay broke mid-copy after the status line was sent.")
	fmt.Fprintln(w, "# TYPE dvfsd_relay_errors_total counter")
	fmt.Fprintf(w, "dvfsd_relay_errors_total %d\n", m.relayErrors)

	fmt.Fprintln(w, "# HELP dvfsd_store_errors_total Job-store persistence failures (records stay serveable from memory).")
	fmt.Fprintln(w, "# TYPE dvfsd_store_errors_total counter")
	fmt.Fprintf(w, "dvfsd_store_errors_total %d\n", m.storeErrors)
	fmt.Fprintln(w, "# HELP dvfsd_store_recovered_jobs Unfinished jobs recovered from the store at boot and re-enqueued.")
	fmt.Fprintln(w, "# TYPE dvfsd_store_recovered_jobs gauge")
	fmt.Fprintf(w, "dvfsd_store_recovered_jobs %d\n", m.recoveredJobs)

	fmt.Fprintln(w, "# HELP dvfsd_ga_evaluations_total Individuals evaluated by the GA across all searches.")
	fmt.Fprintln(w, "# TYPE dvfsd_ga_evaluations_total counter")
	fmt.Fprintf(w, "dvfsd_ga_evaluations_total %d\n", m.gaEvals)
	fmt.Fprintln(w, "# HELP dvfsd_ga_generations_total GA generations completed across all searches.")
	fmt.Fprintln(w, "# TYPE dvfsd_ga_generations_total counter")
	fmt.Fprintf(w, "dvfsd_ga_generations_total %d\n", m.gaGens)
	fmt.Fprintln(w, "# HELP dvfsd_ga_migrations_total Individuals exchanged over the island ring across all searches.")
	fmt.Fprintln(w, "# TYPE dvfsd_ga_migrations_total counter")
	fmt.Fprintf(w, "dvfsd_ga_migrations_total %d\n", m.gaMigrations)
	fmt.Fprintln(w, "# HELP dvfsd_ga_islands Island count of the last finished search.")
	fmt.Fprintln(w, "# TYPE dvfsd_ga_islands gauge")
	fmt.Fprintf(w, "dvfsd_ga_islands %d\n", m.gaIslands)

	workloads := make([]string, 0, len(m.gaJobs))
	for wl := range m.gaJobs {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintln(w, "# HELP dvfsd_job_ga_evals_per_sec GA evaluations per second of the last finished search.")
	fmt.Fprintln(w, "# TYPE dvfsd_job_ga_evals_per_sec gauge")
	for _, wl := range workloads {
		fmt.Fprintf(w, "dvfsd_job_ga_evals_per_sec{workload=%q} %g\n", wl, m.gaJobs[wl].evalsPerSec)
	}
	fmt.Fprintln(w, "# HELP dvfsd_job_ga_generations GA generations completed by the last finished search.")
	fmt.Fprintln(w, "# TYPE dvfsd_job_ga_generations gauge")
	for _, wl := range workloads {
		fmt.Fprintf(w, "dvfsd_job_ga_generations{workload=%q} %d\n", wl, m.gaJobs[wl].generations)
	}
	fmt.Fprintln(w, "# HELP dvfsd_job_ga_island_evals_per_sec Per-island GA evaluations per second of the last finished search.")
	fmt.Fprintln(w, "# TYPE dvfsd_job_ga_island_evals_per_sec gauge")
	for _, wl := range workloads {
		for i, rate := range m.gaJobs[wl].islandEvalsPerSec {
			fmt.Fprintf(w, "dvfsd_job_ga_island_evals_per_sec{workload=%q,island=\"%d\"} %g\n", wl, i, rate)
		}
	}

	fmt.Fprintln(w, "# HELP dvfsd_stage_seconds Per-stage job latency.")
	fmt.Fprintln(w, "# TYPE dvfsd_stage_seconds histogram")
	stages := make([]string, 0, len(m.stageSeconds))
	for s := range m.stageSeconds {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		h := m.stageSeconds[s]
		cum := uint64(0)
		for i, ub := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "dvfsd_stage_seconds_bucket{stage=%q,le=%q} %d\n", s, formatBound(ub), cum)
		}
		fmt.Fprintf(w, "dvfsd_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", s, h.total)
		fmt.Fprintf(w, "dvfsd_stage_seconds_sum{stage=%q} %g\n", s, h.sum)
		fmt.Fprintf(w, "dvfsd_stage_seconds_count{stage=%q} %d\n", s, h.total)
	}
}

func formatBound(ub float64) string { return fmt.Sprintf("%g", ub) }
