package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"npudvfs/internal/classify"
	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/experiments"
	"npudvfs/internal/ga"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/server"
	"npudvfs/internal/thermal"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// The traced replay. dvfsd has no spans of its own yet, so the
// benchmark records them from outside: each replayed request is first
// served for real by an in-process server.New configured like the
// child (spans server.submit, server.job_get, and server.queue /
// server.search from the job's own JobStatus), and then mirrored — the
// benchmark calls the layers' public functions itself, with that
// request's inputs, in the order handleSubmit → generate →
// buildResponse compose them, with a span around each call. The
// mirror's strategy must equal the served one, and trace.coverage
// states how much of the served time the mirror's spans account for.
// When a later change recomposes the serving path, this file is what
// a benchmark-only change updates.

// scoreReps and batchSize size the evaltab micro-timings: enough calls
// that one span is far above timer resolution.
const (
	scoreReps = 2000
	batchSize = 64
	batchReps = scoreReps/batchSize + 1
)

// scoreSink keeps the compiler from discarding the timed Score calls.
var scoreSink float64

// replayOut is what the traced replay measured.
type replayOut struct {
	spans    []span
	requests int
	// latencyMillis is each replayed request's served latency (submit
	// to terminal status), the counterpart of the window's latency.
	latencyMillis []float64
	// counts are the per-request totals that are not span durations
	// (allocations, bytes, GA work), summed over the replay.
	counts map[string]float64
	// offlineMillis is the one-time Lab.Offline calibration, taken
	// before the replay so that no replayed request pays it.
	offlineMillis float64
	// metricsRenderMillis is the mean cost of one GET /metrics.
	metricsRenderMillis float64
}

// replayer holds the in-process server and the mirror's own state.
type replayer struct {
	w       *workloadDef
	in      *inputs
	rec     *recorder
	handler http.Handler
	// The mirror has its own Lab and job store, of the same kind as
	// the server's, so mirrored calls do the same work without
	// touching the server's state.
	lab     *experiments.Lab
	store   jobstore.Store
	bundles map[string]*traceio.ModelBundle
	out     *replayOut
}

func openStore(w *workloadDef, dir string) (jobstore.Store, error) {
	retention := server.Retention(daemonWorkers, daemonQueue)
	if w.fsStore {
		return jobstore.OpenFS(dir, retention, "")
	}
	return jobstore.NewMemory(retention, ""), nil
}

// runReplay serves and mirrors the workload's first w.replay requests
// (client 0 step 0, client 1 step 0, client 0 step 1, …) on one
// goroutine.
func runReplay(ctx context.Context, w *workloadDef, in *inputs, base int64, dir string) (*replayOut, error) {
	bundles := make(map[string]*traceio.ModelBundle)
	for _, t := range in.traces {
		if t.bundle != nil {
			bundles[strings.ToLower(t.bundle.Workload)] = t.bundle
		}
	}
	srvStore, err := openStore(w, filepath.Join(dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	srvLab, mirrorLab := experiments.NewLab(), experiments.NewLab()
	out := &replayOut{counts: make(map[string]float64)}
	if !w.bundles {
		// Jobs that fit models calibrate the Lab on first use. The
		// window's daemon did that during warm-up; do it here up front,
		// timing the mirror's.
		if _, err := srvLab.Offline(); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := mirrorLab.Offline(); err != nil {
			return nil, err
		}
		out.offlineMillis = millisSince(start)
	}
	srv, err := server.New(server.Config{
		Workers: daemonWorkers, QueueDepth: daemonQueue, CacheSize: daemonCache,
		Lab: srvLab, Bundles: bundles, Store: srvStore,
	})
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Shutdown(ctx) }()
	mirrorStore, err := openStore(w, filepath.Join(dir, "mirror-store"))
	if err != nil {
		return nil, err
	}
	defer mirrorStore.Close()

	r := &replayer{
		w: w, in: in, rec: newRecorder(), handler: srv.Handler(),
		lab: mirrorLab, store: mirrorStore, bundles: bundles, out: out,
	}
	for _, hot := range w.hotKeys(base) {
		body, err := json.Marshal(in.wire(w, hot))
		if err != nil {
			return nil, err
		}
		if _, _, err := r.serve(ctx, body, 0, 0); err != nil {
			return nil, fmt.Errorf("replay: priming %s: %w", hot.Trace, err)
		}
	}
	r.rec = newRecorder() // priming is not part of the trace
	for i := 0; i < w.replay; i++ {
		if err := r.one(ctx, i+1, w.gen(base, i%clients, i/clients)); err != nil {
			return nil, err
		}
	}
	const renders = 20
	start := time.Now()
	for i := 0; i < renders; i++ {
		if code, _ := r.call(http.MethodGet, "/metrics", nil); code != http.StatusOK {
			return nil, fmt.Errorf("replay: /metrics answered %d", code)
		}
	}
	out.metricsRenderMillis = millisSince(start) / renders
	out.spans = r.rec.spans
	out.requests = w.replay
	return out, nil
}

// call drives the in-process handler directly: no socket, no client.
func (r *replayer) call(method, path string, body []byte) (int, []byte) {
	rr := httptest.NewRecorder()
	r.handler.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rr.Code, rr.Body.Bytes()
}

// serve runs one request through the real in-process server: submit,
// then poll every pollEvery until terminal. It returns the terminal
// status and its encoded size.
func (r *replayer) serve(ctx context.Context, body []byte, root, rq int) (*traceio.JobStatus, int, error) {
	var st traceio.JobStatus
	var code int
	var raw []byte
	r.rec.time("server.submit", root, rq, func() { code, raw = r.call(http.MethodPost, "/v1/strategies", body) })
	submitted := r.rec.now()
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, 0, fmt.Errorf("submit answered %d: %s", code, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, err
	}
	for !traceio.IsTerminal(st.State) {
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(pollEvery):
		}
		r.rec.time("server.job_get", root, rq, func() { code, raw = r.call(http.MethodGet, "/v1/jobs/"+st.ID, nil) })
		if code != http.StatusOK {
			return nil, 0, fmt.Errorf("poll answered %d: %s", code, raw)
		}
		st = traceio.JobStatus{}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, 0, err
		}
	}
	if st.State != traceio.JobDone || st.Result == nil {
		return nil, 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if !st.Cached {
		// The server timed these itself; anchor them after the submit.
		q := r.rec.add("server.queue", root, rq, submitted, float64(st.QueueMillis))
		r.rec.add("server.search", root, rq, r.rec.spans[q-1].EndUS, float64(st.SearchMillis))
	}
	return &st, len(raw), nil
}

// one replays a single logical request: serve it, mirror it, and (for
// a cold request) take the off-path engine and evaluator timings.
func (r *replayer) one(ctx context.Context, rq int, req request) error {
	rec := r.rec
	root := rec.start("request", 0, rq)
	defer rec.end(root)

	var body []byte
	var err error
	rec.time("client.encode", root, rq, func() { body, err = json.Marshal(r.in.wire(r.w, req)) })
	if err != nil {
		return err
	}
	r.out.counts["traceio.body_kb"] += float64(len(body)) / 1024

	start := time.Now()
	st, size, err := r.serve(ctx, body, root, rq)
	if err != nil {
		return fmt.Errorf("replay request %d (%s): %w", rq, req.Trace, err)
	}
	r.out.latencyMillis = append(r.out.latencyMillis, millisSince(start))
	r.out.counts["traceio.response_kb"] += float64(size) / 1024
	if st.Cached {
		r.out.counts["server.cache_hits"]++
	}

	sub, err := r.mirrorSubmit(root, rq, body, st)
	if err != nil {
		return err
	}
	if st.Cached {
		return nil
	}
	ev, cfg, best, err := r.mirrorJob(ctx, root, rq, sub, st)
	if err != nil {
		return err
	}
	return r.offPath(ctx, root, rq, ev, cfg, best)
}

// mallocs reads the process's cumulative heap allocation count. The
// replay is single-goroutine and the server's workers are idle while
// the mirror runs, so a delta around a call is that call's.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// encodeStatus mirrors server.writeJSON.
func encodeStatus(st *traceio.JobStatus) (int, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(st)
	return buf.Len(), err
}

// noteWrite accounts one job-store write; for the fs store the bytes
// are the record as persistRecord renders it.
func (r *replayer) noteWrite(rec *jobstore.Record) {
	r.out.counts["jobstore.writes"]++
	if r.w.fsStore {
		if raw, err := json.MarshalIndent(rec, "", " "); err == nil {
			r.out.counts["jobstore.written_kb"] += float64(len(raw)+1) / 1024
		}
	}
}

// submission is what the submit mirror hands the job mirror: the
// decoded request, the resolved model, the cache key and the ID the
// mirror's store assigned.
type submission struct {
	req   traceio.StrategyRequest
	model *workload.Model
	key   string
	id    string
}

// mirrorSubmit repeats what handleSubmit does for this body: decode,
// Resolve (Canonicalize, then ByName or ReadWorkload), Fingerprint,
// CacheKey, store.Add, encode. served tells it which way the cache
// lookup went.
func (r *replayer) mirrorSubmit(root, rq int, body []byte, served *traceio.JobStatus) (*submission, error) {
	rec := r.rec
	sp := rec.start("mirror.submit", root, rq)
	defer rec.end(sp)

	sub := &submission{}
	req := &sub.req
	var err error
	rec.time("traceio.decode", sp, rq, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(req)
	})
	if err != nil {
		return nil, err
	}

	var m *workload.Model
	res := rec.start("traceio.resolve", sp, rq)
	if err = req.Search.Canonicalize(); err == nil {
		if req.Workload != "" {
			before := mallocs()
			rec.time("workload.byname", res, rq, func() { m, err = workload.ByName(req.Workload) })
			r.out.counts["workload.byname_allocs"] += mallocs() - before
		} else {
			rec.time("traceio.read_workload", res, rq, func() { m, err = traceio.ReadWorkload(bytes.NewReader(req.Trace)) })
		}
	}
	rec.end(res)
	if err != nil {
		return nil, err
	}
	r.out.counts["workload.trace_ops"] += float64(len(m.Trace))

	var fp, key string
	before := mallocs()
	rec.time("traceio.fingerprint", sp, rq, func() { fp = traceio.Fingerprint(m.Trace) })
	r.out.counts["traceio.fingerprint_allocs"] += mallocs() - before
	rec.time("traceio.cachekey", sp, rq, func() { key = traceio.CacheKey(fp, req.Search) })

	record := &jobstore.Record{State: traceio.JobQueued, Workload: m.Name, CacheKey: key, Request: req}
	if served.Cached {
		record = &jobstore.Record{State: traceio.JobDone, Workload: m.Name, CacheKey: key, Cached: true, Result: served.Result}
	}
	rec.time("jobstore.add", sp, rq, func() { sub.id, err = r.store.Add(record) })
	if err != nil {
		return nil, err
	}
	r.noteWrite(record)
	rec.time("traceio.encode_status", sp, rq, func() { _, err = encodeStatus(record.Status()) })
	if err != nil {
		return nil, err
	}
	sub.model, sub.key = m, key
	return sub, nil
}

// mirrorJob repeats what runJob does for a queued job: the running
// transition, generate (models, core.GenerateContext, buildResponse),
// the terminal transition, and the final poll's read and encode. It
// returns the evaluator, config and best individual for offPath.
func (r *replayer) mirrorJob(ctx context.Context, root, rq int, sub *submission, served *traceio.JobStatus) (*core.Evaluator, core.Config, []int, error) {
	rec := r.rec
	m, key, id, spec := sub.model, sub.key, sub.id, sub.req.Search
	jp := rec.start("mirror.job", root, rq)
	defer rec.end(jp)
	fail := func(err error) (*core.Evaluator, core.Config, []int, error) {
		return nil, core.Config{}, nil, fmt.Errorf("mirror of request %d: %w", rq, err)
	}

	running := &jobstore.Record{ID: id, State: traceio.JobRunning, Workload: m.Name, CacheKey: key, Request: &sub.req}
	var err error
	rec.time("jobstore.update", jp, rq, func() { err = r.store.Update(running) })
	if err != nil {
		return fail(err)
	}
	r.noteWrite(running)

	gen := rec.start("mirror.generate", jp, rq)
	var ms *experiments.Models
	if b, ok := r.bundles[strings.ToLower(m.Name)]; ok {
		ms, err = r.mirrorModelsFromBundle(gen, rq, m, b)
	} else {
		ms, err = r.mirrorBuildModels(gen, rq, m)
	}
	if err != nil {
		rec.end(gen)
		return fail(err)
	}

	cfg := searchConfig(spec)
	input := ms.Input(r.lab.Chip)

	// core.GenerateContext: classify, preprocess, evaluator tables, GA.
	cg := rec.start("core.generate", gen, rq)
	var results []classify.Result
	var stages []preprocess.Stage
	var ev *core.Evaluator
	var gaRes *ga.Result
	rec.time("classify.trace", cg, rq, func() { results = classify.Trace(input.Profile) })
	rec.time("preprocess.stages", cg, rq, func() { stages, err = preprocess.Stages(input.Profile, results, float64(cfg.FAIMicros)) })
	if err == nil {
		before := mallocs()
		rec.time("core.new_evaluator", cg, rq, func() { ev, err = core.NewEvaluator(input, cfg, stages) })
		r.out.counts["core.new_evaluator_allocs"] += mallocs() - before
	}
	if err == nil {
		before := mallocs()
		rec.time("ga.run", cg, rq, func() { gaRes, err = ga.RunContext(ctx, ev.Problem(), cfg.GA) })
		r.out.counts["ga.run_allocs"] += mallocs() - before
	}
	if err != nil {
		rec.end(cg)
		rec.end(gen)
		return fail(err)
	}
	strat := ev.Strategy(gaRes.Best)
	rec.end(cg)
	r.out.counts["preprocess.stages"] += float64(len(stages))
	r.out.counts["ga.evaluations"] += float64(gaRes.Evaluations)
	r.out.counts["ga.generations"] += float64(gaRes.Generations)
	r.out.counts["ga.islands"] += float64(gaRes.Islands)
	r.out.counts["ga.searches"]++

	// server.buildResponse: strategy wire form, a second evaluator for
	// the predicted deltas, a second fingerprint.
	br := rec.start("server.build_response", gen, rq)
	var compacted []byte
	rec.time("traceio.write_strategy", br, rq, func() {
		var pretty bytes.Buffer
		if err = traceio.WriteStrategy(&pretty, strat); err == nil {
			compacted, err = compact(pretty.Bytes())
		}
	})
	var ev2 *core.Evaluator
	if err == nil {
		before := mallocs()
		rec.time("core.new_evaluator", br, rq, func() { ev2, err = core.NewEvaluator(input, cfg, stages) })
		r.out.counts["core.new_evaluator_allocs"] += mallocs() - before
	}
	if err == nil {
		rec.time("core.predict", br, rq, func() {
			baseline := make([]int, ev2.Genes())
			for i := range baseline {
				baseline[i] = ev2.BaselineIndex()
			}
			if _, err = ev2.Predict(baseline); err == nil {
				_, err = ev2.Predict(gaRes.Best)
			}
		})
	}
	if err == nil {
		before := mallocs()
		rec.time("traceio.fingerprint", br, rq, func() { traceio.Fingerprint(ms.Workload.Trace) })
		r.out.counts["traceio.fingerprint_allocs"] += mallocs() - before
	}
	rec.end(br)
	rec.end(gen)
	if err != nil {
		return fail(err)
	}
	// The mirror is only worth reading if it computes what the server
	// served.
	if servedCompact, err := compact(served.Result.Strategy); err != nil || !bytes.Equal(servedCompact, compacted) {
		return fail(fmt.Errorf("mirrored strategy differs from the served one (%s)", m.Name))
	}

	done := &jobstore.Record{ID: id, State: traceio.JobDone, Workload: m.Name, CacheKey: key,
		QueueMillis: served.QueueMillis, SearchMillis: served.SearchMillis, Result: served.Result}
	rec.time("jobstore.update", jp, rq, func() { err = r.store.Update(done) })
	if err != nil {
		return fail(err)
	}
	r.noteWrite(done)
	var got *jobstore.Record
	rec.time("jobstore.get", jp, rq, func() { got, _ = r.store.Get(id) })
	if got == nil {
		return fail(fmt.Errorf("mirror store lost job %s", id))
	}
	rec.time("traceio.encode_status", jp, rq, func() { _, err = encodeStatus(got.Status()) })
	if err != nil {
		return fail(err)
	}
	return ev, cfg, gaRes.Best, nil
}

// mirrorModelsFromBundle repeats Lab.ModelsFromBundle: one baseline
// profiler run (profiler seed offset 300) plus the bundle's models.
func (r *replayer) mirrorModelsFromBundle(parent, rq int, m *workload.Model, b *traceio.ModelBundle) (*experiments.Models, error) {
	rec := r.rec
	sp := rec.start("experiments.models_from_bundle", parent, rq)
	defer rec.end(sp)
	baseline, err := r.profilerRun(sp, rq, 300, m, r.lab.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	return &experiments.Models{
		Workload: m, Baseline: baseline,
		Perf:  b.PerfModels(),
		Power: b.PowerModel(&powermodel.Offline{Chip: r.lab.Chip}),
	}, nil
}

func (r *replayer) profilerRun(parent, rq int, seedOffset int64, m *workload.Model, f units.MHz) (*profiler.Profile, error) {
	var prof *profiler.Profile
	var err error
	r.rec.time("profiler.run", parent, rq, func() {
		prof, err = profiler.New(r.lab.Chip, r.lab.Seed+seedOffset).Run(m.Trace, float64(f))
	})
	return prof, err
}

// mirrorBuildModels repeats Lab.BuildModels(m, true): offline
// calibration (already done, see runReplay), thermally stable power
// profiles at the two fit frequencies, the power model, a mid-grid
// timing profile, the performance fits, and the baseline profile.
func (r *replayer) mirrorBuildModels(parent, rq int, m *workload.Model) (*experiments.Models, error) {
	rec := r.rec
	sp := rec.start("experiments.build_models", parent, rq)
	defer rec.end(sp)

	var off *powermodel.Offline
	var err error
	rec.time("experiments.offline", sp, rq, func() { off, err = r.lab.Offline() })
	if err != nil {
		return nil, err
	}

	var profiles []*profiler.Profile
	pp := rec.start("experiments.power_profiles", sp, rq)
	p := profiler.New(r.lab.Chip, r.lab.Seed+200)
	for _, f := range experiments.FitFreqs {
		th := thermal.NewState(r.lab.Thermal)
		// Profiler.WarmupIterations, unrolled so the iterations count.
		rec.time("profiler.warmup", pp, rq, func() {
			for i := 0; i < 4000 && err == nil; i++ {
				var prof *profiler.Profile
				if prof, err = p.RunPower(m.Trace, float64(f), r.lab.Ground, th); err != nil {
					break
				}
				r.out.counts["profiler.warmup_iters"]++
				if d := float64(th.TempC() - th.Equilibrium(units.Watt(prof.MeanSoCW()))); d < 0.5 && d > -0.5 {
					break
				}
			}
		})
		if err != nil {
			break
		}
		var prof *profiler.Profile
		rec.time("profiler.run_power", pp, rq, func() { prof, err = p.RunPower(m.Trace, float64(f), r.lab.Ground, th) })
		if err != nil {
			break
		}
		profiles = append(profiles, prof)
	}
	rec.end(pp)
	if err != nil {
		return nil, err
	}

	var power *powermodel.Model
	rec.time("powermodel.build", sp, rq, func() { power, err = powermodel.Build(off, profiles, true) })
	if err != nil {
		return nil, err
	}

	tp := rec.start("experiments.timing_profiles", sp, rq)
	fit := experiments.FitFreqs
	mid, err := r.profilerRun(tp, rq, 100, m, (fit[0]+fit[len(fit)-1])/2)
	rec.end(tp)
	if err != nil {
		return nil, err
	}

	var perf map[string]perfmodel.Model
	rec.time("perfmodel.fit", sp, rq, func() {
		bykey := profiler.BuildSeries(append(profiles, mid))
		series := make([]*profiler.Series, 0, len(bykey))
		for _, s := range bykey {
			series = append(series, s)
		}
		perf = perfmodel.FitSeries(series, experiments.PerfFitFreqs)
	})
	r.out.counts["perfmodel.models"] += float64(len(perf))

	baseline, err := r.profilerRun(sp, rq, 300, m, r.lab.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	return &experiments.Models{Workload: m, Baseline: baseline, Perf: perf, Power: power}, nil
}

// offPath times what no request waits for but every search-stack
// change is argued from: a reused ga.Engine (the BenchmarkGASearch
// shape, against ga.run's fresh engine per call) and the evaluator's
// scalar and batch scoring.
func (r *replayer) offPath(ctx context.Context, root, rq int, ev *core.Evaluator, cfg core.Config, best []int) error {
	rec := r.rec
	sp := rec.start("offpath", root, rq)
	defer rec.end(sp)

	var eng *ga.Engine
	var err error
	rec.time("ga.engine_new", sp, rq, func() { eng, err = ga.New(ev.Problem(), cfg.GA) })
	if err != nil {
		return err
	}
	if _, err = eng.Run(ctx); err != nil { // first run sizes the slabs
		return err
	}
	rec.time("ga.engine_run", sp, rq, func() { _, err = eng.Run(ctx) })
	if err != nil {
		return err
	}

	rec.time("evaltab.score", sp, rq, func() {
		for i := 0; i < scoreReps; i++ {
			scoreSink += ev.Score(best)
		}
	})
	if bs, ok := ev.Problem().(ga.BatchScorer); ok {
		genes := make([]int, 0, batchSize*len(best))
		for i := 0; i < batchSize; i++ {
			genes = append(genes, best...)
		}
		scores := make([]float64, batchSize)
		rec.time("evaltab.score_batch", sp, rq, func() {
			for i := 0; i < batchReps; i++ {
				bs.ScoreBatch(genes, batchSize, scores)
			}
		})
		scoreSink += scores[0]
	}
	return nil
}

// measureExecutor repeats Lab.MeasureStrategy for one probe with the
// stabilisation loop unrolled, so the iterations count.
func measureExecutor(lab *experiments.Lab, m *workload.Model, strat *core.Strategy) (millis float64, iterations int, err error) {
	ex := executor.New(lab.Chip, lab.Ground)
	th := thermal.NewState(lab.Thermal)
	start := time.Now()
	for iterations < 4000 {
		res, err := ex.Run(m.Trace, strat, th, executor.DefaultOptions())
		if err != nil {
			return 0, 0, err
		}
		iterations++
		if d := float64(th.Equilibrium(units.Watt(res.MeanSoCW)) - th.TempC()); d < 0.5 && d > -0.5 {
			break
		}
	}
	return millisSince(start), iterations, nil
}
