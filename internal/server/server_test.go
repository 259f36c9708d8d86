package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"npudvfs/internal/core"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// The test fixture: one lab (its offline calibration is the expensive
// part, computed once) and one pre-fitted resnet50 bundle so
// bundle-warmed servers skip per-job model building entirely.
var (
	fixOnce   sync.Once
	fixLab    *pipeline.Lab
	fixBundle *traceio.ModelBundle
	fixErr    error
)

func fixture(t *testing.T) (*pipeline.Lab, *traceio.ModelBundle) {
	t.Helper()
	fixOnce.Do(func() {
		fixLab = pipeline.NewLab()
		m, err := workload.ByName("resnet50")
		if err != nil {
			fixErr = err
			return
		}
		ms, err := fixLab.BuildModels(m, true)
		if err != nil {
			fixErr = err
			return
		}
		b, err := ms.Bundle()
		if err != nil {
			fixErr = err
			return
		}
		// Round-trip through the wire format: the server loads bundles
		// from disk, so the test must prove serialization preserves
		// the models exactly.
		var buf bytes.Buffer
		if err := traceio.WriteModels(&buf, b); err != nil {
			fixErr = err
			return
		}
		fixBundle, fixErr = traceio.ReadModels(&buf)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixLab, fixBundle
}

// newTestServer boots a bundle-warmed server over httptest and
// registers teardown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	lab, bundle := fixture(t)
	if cfg.Lab == nil {
		cfg.Lab = lab
	}
	if cfg.Bundles == nil {
		cfg.Bundles = map[string]*traceio.ModelBundle{"resnet50": bundle}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, *traceio.JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/strategies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return resp.StatusCode, nil
	}
	var st traceio.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp.StatusCode, &st
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, *traceio.JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var st traceio.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &st
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) *traceio.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, st := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status code %d", id, code)
		}
		switch st.State {
		case traceio.JobDone, traceio.JobFailed, traceio.JobCancelled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// smallSearch is a seconds-scale GA for handler tests.
func smallSearch(seed int64) string {
	return fmt.Sprintf(`{"workload": "resnet50", "search": {"pop": 16, "gens": 8, "seed": %d}}`, seed)
}

func TestSubmitBadJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := submit(t, ts, `{not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: code %d, want 400", code)
	}
	if code, _ := submit(t, ts, `{"workload": "resnet50", "unknown_field": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d, want 400", code)
	}
	if code, _ := submit(t, ts, `{"workload": "resnet50", "search": {"pop": 1}}`); code != http.StatusBadRequest {
		t.Errorf("invalid search spec: code %d, want 400", code)
	}
	// Search sizes the engine cannot run (population not above its
	// elitism) or that would size its slabs from the request (a
	// terabyte history) are refused at submit, not accepted and failed.
	for _, search := range []string{`{"pop": 2}`, `{"gens": 1000000000000}`} {
		if code, _ := submit(t, ts, `{"workload": "resnet50", "search": `+search+`}`); code != http.StatusBadRequest {
			t.Errorf("search %s: code %d, want 400", search, code)
		}
	}
	if code, _ := submit(t, ts, `{}`); code != http.StatusBadRequest {
		t.Errorf("no workload: code %d, want 400", code)
	}
}

// TestSubmitTraceOpCeiling: an inline trace above traceio's operator
// ceiling is refused at submit with 400 and an error naming the limit,
// since a model build cannot be cancelled once a worker starts it; a
// trace at the ceiling is accepted. The accepted job waits behind a
// deep search on the one worker, and the forced shutdown cancels it in
// the queue, before its model build.
func TestSubmitTraceOpCeiling(t *testing.T) {
	const maxTraceOps = 1 << 17 // traceio's unexported ceiling
	lab, bundle := fixture(t)
	s, err := New(Config{
		Workers: 1, QueueDepth: 4, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx) // force-cancels the deep search and the queued job
	})
	if code, _ := submit(t, ts, deepSearch(1)); code != http.StatusAccepted {
		t.Fatalf("deep search: code %d, want 202", code)
	}
	body := func(ops int) string {
		var b strings.Builder
		b.WriteString(`{"trace":{"name":"ceiling","trace":[`)
		for i := 0; i < ops; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"name":"i","class":"idle","fixed_us":1}`)
		}
		b.WriteString(`]},"search":{"pop":8,"gens":2}}`)
		return b.String()
	}
	resp, err := http.Post(ts.URL+"/v1/strategies", "application/json", strings.NewReader(body(maxTraceOps+1)))
	if err != nil {
		t.Fatal(err)
	}
	var refused traceio.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&refused)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(refused.Error, fmt.Sprint(maxTraceOps)) {
		t.Errorf("%d operators: code %d (%q), want 400 naming the limit %d",
			maxTraceOps+1, resp.StatusCode, refused.Error, maxTraceOps)
	}
	if code, _ := submit(t, ts, body(maxTraceOps)); code != http.StatusAccepted {
		t.Errorf("%d operators: code %d, want 202", maxTraceOps, code)
	}
}

// TestInlineFallbackBodySharesCacheEntry: an inline trace outside the
// fast decoder's subset — an escaped letter in its name, an upper-case
// key — is decoded by the encoding/json reference to the same trace, so
// it gets the canonical body's fingerprint and its cache entry.
func TestInlineFallbackBodySharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := workload.ResNet50()
	var indented, canonical bytes.Buffer
	if err := traceio.WriteWorkload(&indented, m); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&canonical, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	variant := strings.Replace(canonical.String(), `{"name":"Resnet50"`, `{"name":"\u0052esnet50"`, 1)
	variant = strings.Replace(variant, `"class":`, `"CLASS":`, 1)
	if !strings.Contains(variant, `\u0052`) || !strings.Contains(variant, `"CLASS":`) {
		t.Fatal("the variant body did not take its edits")
	}
	const search = `"search":{"pop":16,"gens":8,"seed":7}`
	code, st := submit(t, ts, `{"trace":`+canonical.String()+`,`+search+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("canonical body: code %d, want 202", code)
	}
	done := waitJob(t, ts, st.ID)
	if done.State != traceio.JobDone {
		t.Fatalf("canonical body: job %q (%s)", done.State, done.Error)
	}
	code, hit := submit(t, ts, `{"trace":`+variant+`,`+search+`}`)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("fallback body: code %d, want 200 from the cache", code)
	}
	if want := traceio.Fingerprint(m.Trace); hit.Result.Fingerprint != want || done.Result.Fingerprint != want {
		t.Errorf("fingerprints %q and %q, want both %q", done.Result.Fingerprint, hit.Result.Fingerprint, want)
	}
	if !bytes.Equal(hit.Result.Strategy, done.Result.Strategy) {
		t.Error("fallback body got a different strategy")
	}
}

// TestInlineTraceBorrowingBundleName: an inline trace that carries
// ViT's operators under resnet50's name is not the trace the resnet50
// bundle was fitted on, so the bundle must not serve it. Its strategy
// is cached under its own fingerprint, and must be the one a daemon
// without bundles returns for it.
func TestInlineTraceBorrowingBundleName(t *testing.T) {
	m := workload.ViTBase()
	m.Name = "resnet50"
	var trace bytes.Buffer
	if err := traceio.WriteWorkload(&trace, m); err != nil {
		t.Fatal(err)
	}
	body := `{"trace":` + trace.String() + `,"search":{"pop":16,"gens":8,"seed":3}}`
	result := func(cfg Config) []byte {
		t.Helper()
		_, ts := newTestServer(t, cfg)
		code, st := submit(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("code %d, want 202", code)
		}
		done := waitJob(t, ts, st.ID)
		if done.State != traceio.JobDone {
			t.Fatalf("job %q (%s)", done.State, done.Error)
		}
		raw, err := json.Marshal(done.Result)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	withBundle := result(Config{Workers: 1})
	without := result(Config{Workers: 1, Bundles: map[string]*traceio.ModelBundle{}})
	if !bytes.Equal(withBundle, without) {
		t.Errorf("the resnet50 bundle served a trace it was not fitted on: %d result bytes, %d without bundles",
			len(withBundle), len(without))
	}
}

// TestSubmitNullTraceIsAbsent: a client that serializes an unset
// nullable field sends "trace": null. Beside a workload name that is a
// named request, not a conflict; alone it is a request for nothing.
func TestSubmitNullTraceIsAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, st := submit(t, ts, `{"workload":"resnet50","trace":null,"search":{"pop":16,"gens":8,"seed":36}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("named request with a null trace: code %d, want 202 or 200", code)
	}
	if done := waitJob(t, ts, st.ID); done.State != traceio.JobDone {
		t.Errorf("named request with a null trace: job %q (%s)", done.State, done.Error)
	}

	resp, err := http.Post(ts.URL+"/v1/strategies", "application/json", strings.NewReader(`{"trace":null,"search":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	var refused traceio.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&refused)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(refused.Error, "names no workload") {
		t.Errorf(`{"trace":null}: code %d (%q), want 400 naming no workload`, resp.StatusCode, refused.Error)
	}
}

func TestSubmitUnknownWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := submit(t, ts, `{"workload": "nonsense"}`); code != http.StatusNotFound {
		t.Errorf("unknown workload: code %d, want 404", code)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := getJob(t, ts, "j99999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: code %d", resp.StatusCode)
	}
}

func TestSubmitCompletesAndCacheHitOnResubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, st := submit(t, ts, smallSearch(7))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d, want 202", code)
	}
	if st.State != traceio.JobQueued && st.State != traceio.JobRunning {
		t.Fatalf("first submit state %q", st.State)
	}
	done := waitJob(t, ts, st.ID)
	if done.State != traceio.JobDone {
		t.Fatalf("job finished %q (%s), want done", done.State, done.Error)
	}
	if done.Cached {
		t.Error("first submission reported as cached")
	}
	if done.Result == nil || len(done.Result.Strategy) == 0 {
		t.Fatal("done job carries no strategy")
	}
	if done.Result.Predicted.SoCSavingPct <= 0 {
		t.Errorf("predicted SoC saving %.2f%%, want > 0", done.Result.Predicted.SoCSavingPct)
	}
	if _, err := traceio.ReadStrategy(bytes.NewReader(done.Result.Strategy)); err != nil {
		t.Errorf("strategy payload does not parse: %v", err)
	}
	if want := traceio.Fingerprint(workload.ResNet50().Trace); done.Result.Fingerprint != want {
		t.Errorf("response fingerprint %q, want the submitted trace's %q", done.Result.Fingerprint, want)
	}

	// Resubmission: answered immediately from the cache, strategy
	// byte-identical.
	code, hit := submit(t, ts, smallSearch(7))
	if code != http.StatusOK {
		t.Fatalf("resubmit: code %d, want 200", code)
	}
	if hit.State != traceio.JobDone || !hit.Cached {
		t.Fatalf("resubmit state %q cached=%v, want done/cached", hit.State, hit.Cached)
	}
	if !bytes.Equal(hit.Result.Strategy, done.Result.Strategy) {
		t.Error("cached strategy differs from the original")
	}

	// A different seed is a different cache key.
	code, miss := submit(t, ts, smallSearch(8))
	if code != http.StatusAccepted {
		t.Fatalf("different-seed submit: code %d, want 202", code)
	}
	waitJob(t, ts, miss.ID)

	m := metricsText(t, ts)
	for _, want := range []string{
		"dvfsd_cache_hits_total 1",
		"dvfsd_cache_misses_total 2",
		// Two searches completed; the cache hit is counted under its
		// own label so done agrees with the search-latency series.
		`dvfsd_jobs_total{state="done"} 2`,
		`dvfsd_jobs_total{state="cached"} 1`,
		`dvfsd_stage_seconds_count{stage="search"} 2`,
		`dvfsd_job_ga_evals_per_sec{workload="resnet50"}`,
		`dvfsd_job_ga_generations{workload="resnet50"}`,
		// Island-model instrumentation: per-island throughput of the
		// last search (island 0 always exists) plus the fan-out gauge
		// and the ring-exchange counter.
		`dvfsd_job_ga_island_evals_per_sec{workload="resnet50",island="0"}`,
		"\ndvfsd_ga_islands ",
		"\ndvfsd_ga_migrations_total ",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q:\n%s", want, m)
		}
	}
	// Two searches ran (the cache hit runs no GA); the cumulative
	// counters must reflect actual evaluations and generations.
	for _, re := range []string{"\ndvfsd_ga_evaluations_total ", "\ndvfsd_ga_generations_total "} {
		i := strings.Index(m, re)
		if i < 0 {
			t.Fatalf("metrics missing %q:\n%s", re, m)
		}
		var v float64
		if _, err := fmt.Sscanf(m[i+len(re):], "%g", &v); err != nil || v <= 0 {
			t.Errorf("counter %q = %g (%v), want > 0", re, v, err)
		}
	}
}

func TestDeadlineCancelsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A deep search under a 1 ms deadline (far deeper than the island
	// engine can finish in a millisecond): the GA observes the expired
	// context at a generation boundary and the job lands in state
	// cancelled, not failed.
	code, st := submit(t, ts, `{"workload": "resnet50", "search": {"pop": 200, "gens": 50000, "timeout_ms": 1}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, want 202", code)
	}
	fin := waitJob(t, ts, st.ID)
	if fin.State != traceio.JobCancelled {
		t.Fatalf("state %q (%s), want cancelled", fin.State, fin.Error)
	}
	if fin.Error == "" || !strings.Contains(fin.Error, "deadline") {
		t.Errorf("cancelled job error %q should mention the deadline", fin.Error)
	}
	if !strings.Contains(metricsText(t, ts), `dvfsd_jobs_total{state="cancelled"} 1`) {
		t.Error("metrics missing the cancelled job count")
	}
}

// TestQueueFullRejects: a concurrent burst far above Workers +
// QueueDepth is shed, never failed. Every submission is answered 202
// (running or queued) or 503 (queue full), and the burst sees both.
func TestQueueFullRejects(t *testing.T) {
	lab, bundle := fixture(t)
	// One worker kept busy by deep searches, queue depth 1.
	s, err := New(Config{
		Workers: 1, QueueDepth: 1, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // force-cancels the deep searches
	})
	const burst = 16 // eight times Workers + QueueDepth
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/strategies", "application/json",
				strings.NewReader(deepSearch(int64(i+1))))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	count := map[int]int{}
	for _, code := range codes {
		count[code]++
	}
	accepted, shed := count[http.StatusAccepted], count[http.StatusServiceUnavailable]
	if accepted == 0 || shed == 0 || accepted+shed != burst {
		t.Errorf("burst of %d answered %v; want only 202 and 503, at least one of each", burst, count)
	}
}

// TestConcurrentSubmissionsStress fans ≥8 concurrent submissions (a
// mix of distinct seeds and duplicates) at the server. Under -race
// this is the data-race gate for the whole serving path; it also pins
// that equal requests produce byte-identical strategies no matter
// which worker ran them or whether the cache answered.
func TestConcurrentSubmissionsStress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	const n = 10
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i%5 + 1) // 5 distinct searches, each submitted twice
			code, st := submit(t, ts, smallSearch(seed))
			switch code {
			case http.StatusAccepted, http.StatusOK:
				ids[i] = st.ID
			default:
				errs <- fmt.Errorf("submission %d: code %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	bySeed := make(map[int64][]byte)
	for i, id := range ids {
		st := waitJob(t, ts, id)
		if st.State != traceio.JobDone {
			t.Fatalf("job %s: state %q (%s)", id, st.State, st.Error)
		}
		seed := int64(i%5 + 1)
		if prev, ok := bySeed[seed]; ok {
			if !bytes.Equal(prev, st.Result.Strategy) {
				t.Errorf("seed %d: strategies differ across equal submissions", seed)
			}
		} else {
			bySeed[seed] = st.Result.Strategy
		}
	}
}

// goroutineBaseline samples the goroutine count after a settling
// sleep, so lingering runtime/net goroutines from earlier tests don't
// count against the leak budget.
func goroutineBaseline() int {
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 { // slack for HTTP keep-alive reapers
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

func TestShutdownDrainsWithoutLeak(t *testing.T) {
	lab, bundle := fixture(t)
	base := goroutineBaseline()
	s, err := New(Config{
		Workers: 2, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var ids []string
	for i := 0; i < 4; i++ {
		code, st := submit(t, ts, smallSearch(int64(20+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	// Generous deadline: the drain must finish the in-flight searches.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for _, id := range ids {
		st, ok := s.jobStatus(id)
		if !ok {
			t.Fatalf("job %s evicted before completion", id)
		}
		if st.State != traceio.JobDone {
			t.Errorf("job %s after drain: %q (%s), want done", id, st.State, st.Error)
		}
	}
	// Submissions after shutdown are refused, not queued into the void.
	if code, _ := submit(t, ts, smallSearch(99)); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: code %d, want 503", code)
	}
	ts.Close()
	waitForGoroutines(t, base)
}

func TestShutdownDeadlineForceCancels(t *testing.T) {
	lab, bundle := fixture(t)
	base := goroutineBaseline()
	s, err := New(Config{
		Workers: 1, QueueDepth: 4, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var ids []string
	for i := 0; i < 3; i++ {
		// Deep searches that cannot finish inside the 100ms deadline;
		// the forced cancellation reaps them at a generation boundary.
		code, st := submit(t, ts, fmt.Sprintf(
			`{"workload": "resnet50", "search": {"pop": 2000, "gens": 60000, "seed": %d}}`, 50+i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown under load with a 100ms deadline reported a clean drain")
	}
	// Workers have exited (Shutdown waited for them even on the error
	// path); every job must be terminal and the deep searches
	// cancelled, not abandoned mid-run.
	reachedGA := 0
	for _, id := range ids {
		st, ok := s.jobStatus(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		switch st.State {
		case traceio.JobDone, traceio.JobCancelled:
		default:
			t.Errorf("job %s after forced shutdown: %q (%s)", id, st.State, st.Error)
		}
		if !strings.Contains(st.Error, "model building") {
			reachedGA++
		}
	}
	// A job cancelled in the queue never started a search (or a model
	// build): it must leave no 0 s sample in either histogram.
	if reachedGA == len(ids) {
		t.Fatalf("all %d jobs reached the GA; none was cancelled in the queue", reachedGA)
	}
	m := metricsText(t, ts)
	if reachedGA == 0 {
		if strings.Contains(m, `stage="search"`) {
			t.Errorf("no job reached the GA, yet a search-stage series exists:\n%s", m)
		}
	} else if want := fmt.Sprintf("dvfsd_stage_seconds_count{stage=\"search\"} %d\n", reachedGA); !strings.Contains(m, want) {
		t.Errorf("search histogram should count the %d job(s) that reached the GA; want %q in:\n%s", reachedGA, want, m)
	}
	if want := fmt.Sprintf("dvfsd_stage_seconds_count{stage=\"queue\"} %d\n", len(ids)); !strings.Contains(m, want) {
		t.Errorf("every dequeued job has a queue sample; want %q", want)
	}
	ts.Close()
	waitForGoroutines(t, base)
}

// TestServerMatchesBatch pins the determinism contract of DESIGN.md
// §8: the served strategy for a workload/seed is byte-identical to
// what the cmd/dvfs-run batch path generates — including when the
// server skips model building via a loaded bundle.
func TestServerMatchesBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy end-to-end case; covered by the non-race suite")
	}
	lab, _ := fixture(t)
	_, ts := newTestServer(t, Config{Workers: 1})

	code, st := submit(t, ts, smallSearch(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	served := waitJob(t, ts, st.ID)
	if served.State != traceio.JobDone {
		t.Fatalf("job %q (%s)", served.State, served.Error)
	}

	// The batch path, exactly as cmd/dvfs-run runs it (fresh models,
	// no bundle).
	m, err := workload.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.GA.PopSize = 16
	cfg.GA.Generations = 8
	cfg.GA.Seed = 7
	strat, _, _, err := core.GenerateContext(context.Background(), ms.Input(lab.Chip), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := traceio.WriteStrategy(&pretty, strat); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The HTTP layer re-indents embedded JSON; compare the canonical
	// compact form on both sides.
	if err := json.Compact(&got, served.Result.Strategy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("served strategy differs from the batch path:\n--- served ---\n%s\n--- batch ---\n%s",
			got.Bytes(), want.Bytes())
	}
}
