// Package server implements dvfsd, the DVFS strategy service: an HTTP
// daemon that accepts workload traces (the traceio wire format), runs
// the Fig. 1 modeling + genetic-search pipeline on a bounded worker
// pool, and returns strategies with model-predicted energy/perf
// deltas. Completed strategies are cached in an LRU keyed by canonical
// trace fingerprint + search config, so resubmitting a trace skips the
// model build and the search. A hit is not free: the named trace is the
// registry's shared one (workload.ByName, about a microsecond), but it
// is still fingerprinted on every request, which grows with the trace —
// a client sees about 0.6 / 1.5 / 6 ms per hit for ResNet-50 / BERT /
// GPT-3 on the reference host (DESIGN.md §10; ROADMAP item 2a).
//
// Determinism contract: the pipeline is the exact one cmd/dvfs-run
// executes (same Lab seed, same profiler offsets, same GA), so for the
// same trace and search spec the served strategy is byte-identical to
// the batch path's — and byte-identical across resubmissions whether
// they hit the cache or re-run the search.
//
// Cluster mode (DESIGN.md §12): given a consistent-hash ring and a
// node ID, the daemon owns the slice of the strategy keyspace the ring
// assigns it. Submissions for keys it does not own are proxied to the
// owner (one hop, loop-guarded by the X-Dvfsd-Forwarded header), so
// every node is a full front end while each strategy is computed and
// cached on exactly one node. The determinism contract makes routing a
// pure optimization: any node serves byte-identical strategies, the
// ring only concentrates cache hits.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/cluster/ring"
	"npudvfs/internal/core"
	"npudvfs/internal/ga"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/traceio"
)

// ForwardHeader marks a proxied request so the receiving node serves
// it locally instead of forwarding again: routing is at most one hop,
// even with disagreeing ring files. The value is the sending node's ID.
const ForwardHeader = "X-Dvfsd-Forwarded"

// maxRequestBytes caps a submission body; larger ones are answered 413.
// Inline traces are MB-scale (the largest any shipped workload sends is
// about 5 MB), so this only stops a client streaming without end.
const maxRequestBytes = 64 << 20

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent searches (default 2).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond
	// it are rejected with 503 (default 16).
	QueueDepth int
	// CacheSize is the strategy LRU capacity (default 128).
	CacheSize int
	// DefaultTimeout bounds a single job's model+search wall time when
	// the request does not set timeout_ms (default 10 minutes).
	DefaultTimeout time.Duration
	// Lab is the simulated accelerator the service optimizes for; nil
	// means pipeline.NewLab().
	Lab *pipeline.Lab
	// Bundles maps lower-cased workload names to pre-fitted models
	// (dvfsd -load-models): jobs on the trace a bundle was fitted on
	// skip calibration and fit-frequency profiling
	// (pipeline.Lab.ModelsFor).
	Bundles map[string]*traceio.ModelBundle

	// Ring is the cluster topology; nil runs single-node. When set,
	// NodeID must name a ring member and submissions whose strategy key
	// hashes to another node are proxied to it.
	Ring *ring.Ring
	// NodeID identifies this daemon in the ring and prefixes its job
	// IDs ("n1-j00000001") so IDs are unique — and routable — cluster
	// wide.
	NodeID string
	// Store is the durable job index; nil means an in-process memory
	// store sized by Retention (single-node behavior, jobs die with the
	// process). An fs store makes acknowledged jobs survive restarts.
	Store jobstore.Store
}

func (c *Config) fillDefaults() {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.CacheSize < 1 {
		c.CacheSize = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.Lab == nil {
		c.Lab = pipeline.NewLab()
	}
}

// Retention is the job-store bound for a daemon with the given worker
// pool and queue: every live job (workers + queue) plus headroom for
// completed ones. A bound below this lets a saturated store evict a
// fresh result before the submitter's first poll.
func Retention(workers, queueDepth int) int {
	return 4*queueDepth + workers + 1
}

// Server is the dvfsd service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg    Config
	lab    *pipeline.Lab
	cache  *strategyCache
	store  jobstore.Store
	met    *metrics
	mux    *http.ServeMux
	ring   *ring.Ring
	nodeID string
	// peers issues proxied requests to other ring nodes.
	peers *http.Client

	queue chan *job
	// baseCtx parents every job context; cancelAll force-cancels
	// in-flight searches when a shutdown deadline expires.
	baseCtx   context.Context
	cancelAll context.CancelFunc
	workers   sync.WaitGroup
	// stopping is closed when Shutdown begins; it unblocks the recovery
	// goroutine's queue sends so shutdown never deadlocks behind a full
	// queue.
	stopping chan struct{}
	// requeueDone is closed once the recovery goroutine has stopped
	// sending; the queue may only be closed after it (a send on a
	// closed channel panics).
	requeueDone chan struct{}
	// drained is closed once every worker has exited; all Shutdown
	// callers wait on it so "Shutdown returned nil" always means
	// "daemon quiesced", not "someone else is draining".
	drained chan struct{}

	mu     sync.Mutex
	closed bool
}

// New starts the worker pool — re-enqueuing any unfinished jobs the
// store recovered from a previous process — and returns the service.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Ring != nil {
		if cfg.NodeID == "" {
			return nil, errors.New("server: cluster mode requires a node ID")
		}
		if _, ok := cfg.Ring.Lookup(cfg.NodeID); !ok {
			return nil, fmt.Errorf("server: node %q is not a ring member", cfg.NodeID)
		}
	}
	store := cfg.Store
	if store == nil {
		prefix := ""
		if cfg.NodeID != "" {
			prefix = cfg.NodeID + "-"
		}
		store = jobstore.NewMemory(Retention(cfg.Workers, cfg.QueueDepth), prefix)
	}
	// Daemon lifecycle root: New owns the process-long context that Shutdown cancels
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		lab:         cfg.Lab,
		cache:       newStrategyCache(cfg.CacheSize),
		store:       store,
		met:         newMetrics(),
		mux:         http.NewServeMux(),
		ring:        cfg.Ring,
		nodeID:      cfg.NodeID,
		peers:       &http.Client{Timeout: 30 * time.Second},
		queue:       make(chan *job, cfg.QueueDepth),
		baseCtx:     ctx,
		cancelAll:   cancel,
		stopping:    make(chan struct{}),
		requeueDone: make(chan struct{}),
		drained:     make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/strategies", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	pending := store.Pending()
	s.met.recoveredJobs.set(float64(len(pending)))
	if len(pending) == 0 {
		close(s.requeueDone)
	} else {
		go s.requeue(pending)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// requeue feeds recovered jobs back into the queue: the jobs a dead
// process acknowledged with 202 but never finished. Sends block until
// a worker frees queue space (recovered jobs may outnumber the queue)
// and abort on shutdown.
func (s *Server) requeue(pending []*jobstore.Record) {
	defer close(s.requeueDone)
	for _, rec := range pending {
		if rec.Request == nil {
			s.failRecovered(rec, errors.New("recovered job has no request body"))
			continue
		}
		m, err := rec.Request.Resolve()
		if err != nil {
			s.failRecovered(rec, err)
			continue
		}
		// The trace is resolved against this process's registry, so the
		// key is derived from it as well, not taken from the record: a
		// registry trace that changed since the job was acknowledged
		// would otherwise cache the new strategy under the old trace's
		// key, beside a response carrying the new fingerprint.
		fingerprint := traceio.Fingerprint(m.Trace)
		key := traceio.CacheKey(fingerprint, rec.Request.Search)
		j := &job{
			id:          rec.ID,
			workload:    rec.Workload,
			fingerprint: fingerprint,
			cacheKey:    key,
			spec:        rec.Request.Search,
			model:       m,
			req:         rec.Request,
			submitted:   time.Now(),
		}
		// A record recovered mid-run shows queued again until a worker
		// picks it up — pollers see a consistent restart of the machine,
		// not a job stuck "running" in a process that no longer exists.
		s.storeUpdate(&jobstore.Record{
			ID: rec.ID, State: traceio.JobQueued, Workload: rec.Workload,
			CacheKey: key, Request: rec.Request,
		})
		select {
		case s.queue <- j:
		case <-s.stopping:
			return
		}
	}
}

// failRecovered marks a recovered record that cannot be re-run (no
// request body, or the workload no longer resolves) as failed, so its
// submitter polls a terminal answer instead of a job frozen in queued.
func (s *Server) failRecovered(rec *jobstore.Record, err error) {
	s.storeUpdate(&jobstore.Record{
		ID: rec.ID, State: traceio.JobFailed, Workload: rec.Workload,
		CacheKey: rec.CacheKey,
		Error:    fmt.Sprintf("not recoverable after restart: %v", err),
	})
	s.met.jobsFailed.inc()
}

// Handler returns the HTTP surface, suitable for http.Server and
// httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops accepting jobs and drains the queue and in-flight
// searches. If ctx expires first, remaining searches are
// force-cancelled (they unwind at the next GA generation boundary) and
// Shutdown waits for the workers to exit before returning ctx's error.
//
// Shutdown is safe to call concurrently: every caller blocks on the
// shared drain channel, so no caller returns nil while workers are
// still running. (Previously a second call returned nil immediately,
// and callers treating that as "daemon quiesced" raced the drain.)
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stopping)
		// The caller that flips closed owns the drain watcher. The
		// queue closes only after the recovery goroutine has stopped
		// sending on it.
		go func() {
			<-s.requeueDone
			close(s.queue)
			s.workers.Wait()
			_ = s.store.Close()
			close(s.drained)
		}()
	}
	s.mu.Unlock()

	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-s.drained
		return ctx.Err()
	}
}

// worker consumes jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.met.queueDepth.set(float64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one search under the job's deadline, persisting each
// state transition.
func (s *Server) runJob(j *job) {
	queueDur := time.Since(j.submitted)
	s.storeUpdate(&jobstore.Record{
		ID: j.id, State: traceio.JobRunning, Workload: j.workload,
		CacheKey: j.cacheKey, Request: j.req, QueueMillis: millis(queueDur),
	})
	s.met.stageQueue.observe(queueDur.Seconds())
	s.met.running.add(1)
	defer s.met.running.add(-1)

	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMillis > 0 {
		timeout = time.Duration(j.spec.TimeoutMillis) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	defer cancel()

	start := time.Now()
	resp, err := s.generate(ctx, j)
	searchDur := time.Since(start)

	// Terminal records drop the request body: there is nothing left to
	// re-run, and results dominate the record size already.
	rec := &jobstore.Record{
		ID: j.id, Workload: j.workload, CacheKey: j.cacheKey,
		QueueMillis: millis(queueDur), SearchMillis: millis(searchDur),
	}
	switch {
	case err == nil:
		rec.State = traceio.JobDone
		rec.Result = resp
		s.met.jobsDone.inc()
		s.cache.Put(j.cacheKey, resp)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		rec.State = traceio.JobCancelled
		rec.Error = err.Error()
		s.met.jobsCancelled.inc()
	default:
		rec.State = traceio.JobFailed
		rec.Error = err.Error()
		s.met.jobsFailed.inc()
	}
	s.storeUpdate(rec)
}

// generate runs the modeling + search pipeline for one workload,
// observing each stage's latency as it ends. A stage that never started
// records nothing: a job cancelled before model building leaves no model
// or search sample, a failed model build no search sample. A stage that
// started records even when it fails or is cancelled midway.
func (s *Server) generate(ctx context.Context, j *job) (*traceio.StrategyResponse, error) {
	m, spec := j.model, j.spec
	if err := ctx.Err(); err != nil {
		// A force-cancelled queued job must not start a multi-second
		// model build it would only throw away.
		return nil, fmt.Errorf("server: cancelled before model building: %w", err)
	}
	modelStart := time.Now()
	ms, err := s.lab.ModelsFor(m, j.req.Workload != "", j.fingerprint, s.cfg.Bundles)
	s.met.stageModel.observe(time.Since(modelStart).Seconds())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("server: cancelled after model building: %w", err)
	}

	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = spec.TargetLoss
	cfg.FAIMicros = spec.FAIMillis.Micros()
	cfg.GA.PopSize = spec.Pop
	cfg.GA.Generations = spec.Gens
	cfg.GA.Seed = spec.Seed
	searchStart := time.Now()
	ev, gaRes, err := core.Search(ctx, ms.Input(s.lab.Chip), cfg)
	if err != nil {
		s.met.stageSearch.observe(time.Since(searchStart).Seconds())
		return nil, err
	}
	resp, err := buildResponse(m.Name, j.fingerprint, spec, ev, gaRes)
	searchSeconds := time.Since(searchStart).Seconds()
	s.met.stageSearch.observe(searchSeconds)
	s.observeGA(m.Name, gaRes, searchSeconds)
	return resp, err
}

// observeGA records one finished search's GA counters. The workload
// label is normalized to lower case — the form requests name workloads
// in. searchSeconds is the GA wall time (model building excluded);
// islands run concurrently, so each island's rate is its evaluation
// count over that same time.
func (s *Server) observeGA(workload string, res *ga.Result, searchSeconds float64) {
	workload = strings.ToLower(workload)
	m := s.met
	m.gaEvals.add(float64(res.Evaluations))
	m.gaGens.add(float64(res.Generations))
	m.gaMigrations.add(float64(res.Migrations))
	m.gaIslands.set(float64(res.Islands))
	m.jobGAGens.with(workload).set(float64(res.Generations))
	// The previous search of this workload may have run more islands.
	m.jobGAIslandRate.reset(workload)
	rate := 0.0
	if searchSeconds > 0 {
		rate = float64(res.Evaluations) / searchSeconds
		for i, ev := range res.IslandEvaluations {
			m.jobGAIslandRate.with(workload, strconv.Itoa(i)).set(float64(ev) / searchSeconds)
		}
	}
	m.jobGARate.with(workload).set(rate)
}

// handleSubmit is POST /v1/strategies. A cache hit answers 200 with an
// already-done job; otherwise the job is queued and answered 202 — on
// this node if it owns the strategy key (or there is no ring), else on
// the owner via a single loop-guarded proxy hop.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("reading request: %w", err))
		return
	}
	var req traceio.StrategyRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, err := req.Resolve()
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, traceio.ErrUnknownWorkload) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	fingerprint := traceio.Fingerprint(m.Trace)
	key := traceio.CacheKey(fingerprint, req.Search)

	if s.ring != nil {
		if r.Header.Get(ForwardHeader) != "" {
			// Already proxied once: serve locally regardless of what our
			// ring file says, so disagreeing topologies degrade to an
			// extra hop, never a loop.
			s.met.forwardsIn.inc()
		} else if owner := s.ring.Owner(key); owner.ID != s.nodeID {
			if s.proxy(w, owner, "POST", "/v1/strategies", raw) {
				return
			}
			// Owner unreachable: serve locally. The strategy is
			// byte-identical anywhere; only cache locality suffers.
			s.met.forwardsFallback.inc()
		}
	}

	if resp, ok := s.cache.Get(key); ok {
		s.met.cacheHits.inc()
		rec := &jobstore.Record{
			State: traceio.JobDone, Workload: m.Name, CacheKey: key,
			Cached: true, Result: resp,
		}
		if _, err := s.store.Add(rec); err != nil {
			s.met.storeErrors.inc()
		}
		// Cache hits run no search, so they get their own state instead
		// of inflating "done": done counts completed searches, and the
		// search-latency histogram's count is done plus the searches that
		// failed or were cancelled after reaching the GA.
		s.met.jobsCached.inc()
		writeJSON(w, http.StatusOK, rec.Status())
		return
	}
	s.met.cacheMisses.inc()

	rec := &jobstore.Record{
		State: traceio.JobQueued, Workload: m.Name, CacheKey: key, Request: &req,
	}

	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	// Assign the ID and publish the record BEFORE the queue send: the
	// moment the job is on the queue a worker may finish it and persist
	// a terminal transition, so an unpublished record would drop the
	// result — and the submitter could never poll the ID it was
	// acknowledged with. The store write is disk I/O on the fs backend,
	// so it must not happen under s.mu (lockorder); instead the closed
	// check is repeated under the lock before the send, and a record
	// published during a shutdown race is removed again.
	id, addErr := s.store.Add(rec)
	if addErr != nil {
		s.met.storeErrors.inc()
	}
	j := &job{
		id: id, workload: m.Name, fingerprint: fingerprint, cacheKey: key, spec: req.Search,
		model: m, req: &req, submitted: time.Now(),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.store.Remove(id)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.store.Remove(id)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("queue full (%d jobs waiting); retry later", s.cfg.QueueDepth))
		return
	}
	s.met.queueDepth.set(float64(len(s.queue)))
	writeJSON(w, http.StatusAccepted, rec.Status())
}

// handleJob is GET /v1/jobs/{id}. In cluster mode, IDs carry their
// node prefix, so polls for jobs another node accepted are proxied to
// it.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.ring != nil && r.Header.Get(ForwardHeader) == "" {
		if nid := nodePrefix(id); nid != "" && nid != s.nodeID {
			if n, ok := s.ring.Lookup(nid); ok && s.proxy(w, n, "GET", "/v1/jobs/"+id, nil) {
				return
			}
			// Unknown node or unreachable: fall through to the local
			// store, which answers 404 unless this node served the job
			// as a fallback.
		}
	}
	st, ok := s.jobStatus(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// proxy forwards a request to a peer node and relays its response
// verbatim. Returns false on transport failure — the caller falls back
// to serving locally — and true once any response (success or error)
// has been relayed.
func (s *Server) proxy(w http.ResponseWriter, n ring.Node, method, path string, body []byte) bool {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, strings.TrimRight(n.Addr, "/")+path, rd)
	if err != nil {
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardHeader, s.nodeID)
	resp, err := s.peers.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	s.met.forwardsOut.inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The status line is already on the wire, so the caller can't be
		// retried here — but a torn relay must be visible to operators.
		s.met.relayErrors.inc()
	}
	return true
}

// handleCluster is GET /v1/cluster: this node's identity, store
// backend, and view of the ring.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	st := traceio.ClusterStatus{
		Node:  s.nodeID,
		Store: s.store.Kind(),
	}
	if s.ring != nil {
		st.VNodes = s.ring.VNodes()
		for _, n := range s.ring.Nodes() {
			st.Nodes = append(st.Nodes, traceio.ClusterNode{
				ID: n.ID, Addr: n.Addr, Self: n.ID == s.nodeID,
			})
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.met.cacheEntries.set(float64(s.cache.Len()))
	writeBody(w, http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", s.met.render())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	writeBody(w, code, "application/json", append(body, '\n'))
}

// writeBody sends one complete response. The body arrives already
// rendered, so nothing is formatted — and no lock can be held — while a
// slow client is being written to.
func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	//lint:allow errsink the response writer is the only channel back to the client; a failed write has nowhere else to go
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, traceio.ErrorResponse{Error: err.Error()})
}
