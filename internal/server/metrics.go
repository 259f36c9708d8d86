package server

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"npudvfs/internal/traceio"
)

// kind is a family's TYPE plus its sample format: 'f' prints an
// integer-valued sample as %d would, 'g' is %g.
type kind struct {
	typ     string
	format  byte
	buckets []float64 // histogram upper bounds, ascending
}

// stageBuckets spans sub-millisecond cache bookkeeping to multi-minute
// searches; the closing +Inf bucket is the sample count.
var stageBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, math.Inf(1)}

var (
	counter   = kind{typ: "counter", format: 'f'}
	gauge     = kind{typ: "gauge", format: 'f'}
	rateGauge = kind{typ: "gauge", format: 'g'}
	histogram = kind{typ: "histogram", format: 'g', buckets: stageBuckets}
)

type family struct {
	kind
	m          *metrics
	name, help string
	keys       []string  // label keys
	series     []*series // ascending by label values
}

// series is one labelled sample of a family — for a histogram, one
// bucket ladder with its sum and count.
type series struct {
	fam    *family
	labels []string // one value per family key
	// live series are rendered. An unlabelled one is live from its
	// declaration, a labelled one from its first write.
	live   bool
	v      float64  // counter or gauge value; histogram sum
	counts []uint64 // histogram cumulative bucket counts
}

func (m *metrics) declare(k kind, name, help string, keys ...string) *family {
	f := &family{kind: k, m: m, name: name, help: help, keys: keys}
	m.families = append(m.families, f)
	return f
}

// with returns the family's series for the given label values, one per
// key, creating it on first use.
func (f *family) with(values ...string) *series {
	if len(values) != len(f.keys) {
		panic("server: " + f.name + " takes labels " + strings.Join(f.keys, ","))
	}
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	i, ok := slices.BinarySearchFunc(f.series, values, func(s *series, v []string) int {
		return slices.Compare(s.labels, v)
	})
	if !ok {
		s := &series{fam: f, labels: slices.Clone(values), live: len(values) == 0, counts: make([]uint64, len(f.buckets))}
		f.series = slices.Insert(f.series, i, s)
	}
	return f.series[i]
}

// reset hides every series whose first label is v until its next write.
func (f *family) reset(v string) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	for _, s := range f.series {
		if s.labels[0] == v {
			s.live = false
		}
	}
}

func (s *series) inc() { s.add(1) }

func (s *series) add(d float64) {
	s.fam.m.mu.Lock()
	defer s.fam.m.mu.Unlock()
	s.v += d
	s.live = true
}

func (s *series) set(v float64) {
	s.fam.m.mu.Lock()
	defer s.fam.m.mu.Unlock()
	s.v = v
	s.live = true
}

// observe adds one sample to a histogram series.
func (s *series) observe(v float64) {
	s.fam.m.mu.Lock()
	defer s.fam.m.mu.Unlock()
	s.v += v
	s.live = true
	for i, ub := range s.fam.buckets {
		if v <= ub {
			s.counts[i]++
		}
	}
}

// render returns the exposition: families in declaration order, series
// in label order. The caller writes it out with no lock held, so a
// stalled scraper cannot block a writer.
func (m *metrics) render() []byte {
	var b bytes.Buffer
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.families {
		b.WriteString("# HELP " + f.name + " " + f.help + "\n# TYPE " + f.name + " " + f.typ + "\n")
		for _, s := range f.series {
			if !s.live {
				continue
			}
			labels := make([]string, len(f.keys), len(f.keys)+1)
			for i, k := range f.keys {
				labels[i] = k + "=" + strconv.Quote(s.labels[i])
			}
			value := strconv.FormatFloat(s.v, f.format, -1, 64)
			if f.buckets == nil {
				sample(&b, f.name, labels, value)
				continue
			}
			for i, ub := range f.buckets {
				le := "le=" + strconv.Quote(strconv.FormatFloat(ub, 'g', -1, 64))
				sample(&b, f.name+"_bucket", append(labels, le), strconv.FormatUint(s.counts[i], 10))
			}
			sample(&b, f.name+"_sum", labels, value)
			sample(&b, f.name+"_count", labels, strconv.FormatUint(s.counts[len(s.counts)-1], 10))
		}
	}
	return b.Bytes()
}

func sample(b *bytes.Buffer, name string, labels []string, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteString("{" + strings.Join(labels, ",") + "}")
	}
	b.WriteString(" " + value + "\n")
}

// metrics is dvfsd's instrumentation in the Prometheus text exposition
// format — the dependency-free subset the service needs (counters,
// gauges, fixed-bucket cumulative histograms); a client library would
// violate the repo's stdlib-only rule.
//
// A family's name, HELP, TYPE and label keys are spelled once, in its
// declaration in newMetrics, and the handles below are the only way to
// write a value, so a series without HELP/TYPE, or one written but never
// rendered (or the reverse), cannot be written down. state, direction
// and stage are closed label sets: each permitted value is one handle
// and the family is not kept. workload and island are the only open
// labels; their families are kept and resolved by with at write time.
type metrics struct {
	// mu guards every series. It is held over memory operations only,
	// never across I/O: render formats into a buffer.
	mu       sync.Mutex
	families []*family

	// cached is a submission answered from the strategy cache without a
	// search; the other three are the terminal states of a search job.
	jobsDone, jobsFailed, jobsCancelled, jobsCached *series
	queueDepth, running                             *series
	cacheHits, cacheMisses, cacheEntries            *series
	// out: proxied to the key's owner; in: received from a peer;
	// fallback: owner unreachable, served locally.
	forwardsOut, forwardsIn, forwardsFallback *series
	relayErrors, storeErrors, recoveredJobs   *series
	// Cumulative over all finished searches, except gaIslands: the
	// fan-out the engine chose for the most recent one.
	gaEvals, gaGens, gaMigrations, gaIslands *series
	// Per-workload gauges of the most recent search, the operator's "how
	// fast is the search engine right now" view.
	jobGARate, jobGAGens, jobGAIslandRate *family
	// queue is submit → dequeue, model is profiling + fitting, search is
	// the GA plus response assembly.
	stageQueue, stageModel, stageSearch *series
}

func newMetrics() *metrics {
	m := &metrics{}
	jobs := m.declare(counter, "dvfsd_jobs_total", "Jobs by outcome: terminal search states, plus cached submissions answered without a search.", "state")
	m.jobsDone, m.jobsFailed, m.jobsCancelled, m.jobsCached = jobs.with(traceio.JobDone), jobs.with(traceio.JobFailed), jobs.with(traceio.JobCancelled), jobs.with("cached")
	m.queueDepth = m.declare(gauge, "dvfsd_queue_depth", "Jobs waiting for a worker.").with()
	m.running = m.declare(gauge, "dvfsd_jobs_running", "Jobs currently in a worker.").with()
	m.cacheHits = m.declare(counter, "dvfsd_cache_hits_total", "Strategy cache hits.").with()
	m.cacheMisses = m.declare(counter, "dvfsd_cache_misses_total", "Strategy cache misses.").with()
	m.cacheEntries = m.declare(gauge, "dvfsd_cache_entries", "Strategies currently cached.").with()
	forwards := m.declare(counter, "dvfsd_cluster_forwards_total", "Proxied submissions/polls: out to the key owner, in from a peer, fallback served locally with the owner unreachable.", "direction")
	m.forwardsOut, m.forwardsIn, m.forwardsFallback = forwards.with("out"), forwards.with("in"), forwards.with("fallback")
	m.relayErrors = m.declare(counter, "dvfsd_relay_errors_total", "Proxied responses whose body relay broke mid-copy after the status line was sent.").with()
	m.storeErrors = m.declare(counter, "dvfsd_store_errors_total", "Job-store persistence failures (records stay serveable from memory).").with()
	m.recoveredJobs = m.declare(gauge, "dvfsd_store_recovered_jobs", "Unfinished jobs recovered from the store at boot and re-enqueued.").with()
	m.gaEvals = m.declare(counter, "dvfsd_ga_evaluations_total", "Individuals evaluated by the GA across all searches.").with()
	m.gaGens = m.declare(counter, "dvfsd_ga_generations_total", "GA generations completed across all searches.").with()
	m.gaMigrations = m.declare(counter, "dvfsd_ga_migrations_total", "Individuals exchanged over the island ring across all searches.").with()
	m.gaIslands = m.declare(gauge, "dvfsd_ga_islands", "Island count of the last finished search.").with()
	m.jobGARate = m.declare(rateGauge, "dvfsd_job_ga_evals_per_sec", "GA evaluations per second of the last finished search.", "workload")
	m.jobGAGens = m.declare(gauge, "dvfsd_job_ga_generations", "GA generations completed by the last finished search.", "workload")
	m.jobGAIslandRate = m.declare(rateGauge, "dvfsd_job_ga_island_evals_per_sec", "Per-island GA evaluations per second of the last finished search.", "workload", "island")
	stages := m.declare(histogram, "dvfsd_stage_seconds", "Per-stage job latency.", "stage")
	m.stageQueue, m.stageModel, m.stageSearch = stages.with("queue"), stages.with("model"), stages.with("search")
	return m
}
