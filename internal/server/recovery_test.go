package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// seedStore simulates a crashed daemon: records written to an fs store
// by a process that died before finishing them. Returns the store
// directory and the IDs in submission order.
func seedStore(t *testing.T, dir string, recs []*jobstore.Record) []string {
	t.Helper()
	st, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(recs))
	for i, rec := range recs {
		id, err := st.Add(rec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

func strategyReq(t *testing.T, body string) *traceio.StrategyRequest {
	t.Helper()
	var req traceio.StrategyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// waitStatus polls the server-side store until the job is terminal.
func waitStatus(t *testing.T, s *Server, id string) *traceio.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := s.jobStatus(id)
		if !ok {
			t.Fatalf("job %s missing from the store", id)
		}
		if traceio.IsTerminal(st.State) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestRecoveryFinishesAcknowledgedJobs is the zero-lost-jobs
// guarantee: a daemon restarted over an fs store re-enqueues every
// non-terminal record — whether the crash caught it queued or running
// — and finishes it, while terminal records stay pollable as-is.
func TestRecoveryFinishesAcknowledgedJobs(t *testing.T) {
	lab, bundle := fixture(t)
	dir := t.TempDir()

	queuedReq := strategyReq(t, smallSearch(31))
	runningReq := strategyReq(t, smallSearch(32))
	if _, err := queuedReq.Resolve(); err != nil {
		t.Fatal(err)
	}
	if _, err := runningReq.Resolve(); err != nil {
		t.Fatal(err)
	}
	ids := seedStore(t, dir, []*jobstore.Record{
		{State: traceio.JobQueued, Workload: "resnet50", Request: queuedReq},
		{State: traceio.JobRunning, Workload: "resnet50", Request: runningReq},
		{State: traceio.JobDone, Workload: "resnet50", Cached: true,
			Result: &traceio.StrategyResponse{Workload: "resnet50"}},
		// A record whose request can no longer resolve: it must land in
		// failed, not sit queued forever.
		{State: traceio.JobQueued, Workload: "ghost",
			Request: &traceio.StrategyRequest{Workload: "ghost"}},
	})

	store, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.Pending()); got != 3 {
		t.Fatalf("recovered %d pending jobs, want 3 (queued, running, unresolvable)", got)
	}
	s, err := New(Config{
		Workers: 2, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	for _, id := range ids[:2] {
		st := waitStatus(t, s, id)
		if st.State != traceio.JobDone {
			t.Errorf("recovered job %s finished %q (%s), want done", id, st.State, st.Error)
		}
		if st.Result == nil || len(st.Result.Strategy) == 0 {
			t.Errorf("recovered job %s carries no strategy", id)
		} else if want := traceio.Fingerprint(workload.ResNet50().Trace); st.Result.Fingerprint != want {
			// The seeded records carry no cache key: the digest has to
			// come from the re-resolved trace.
			t.Errorf("recovered job %s: response fingerprint %q, want %q", id, st.Result.Fingerprint, want)
		}
	}
	// The terminal record is untouched and still pollable.
	if st, ok := s.jobStatus(ids[2]); !ok || st.State != traceio.JobDone || !st.Cached {
		t.Errorf("terminal record after restart: %+v (ok=%v)", st, ok)
	}
	// The unresolvable record failed with a recovery explanation.
	ghost := waitStatus(t, s, ids[3])
	if ghost.State != traceio.JobFailed || !strings.Contains(ghost.Error, "not recoverable") {
		t.Errorf("unresolvable record: state %q error %q", ghost.State, ghost.Error)
	}
}

// TestRecoveryResultsSurviveSecondRestart closes the loop: results
// computed by the recovery pass are themselves persisted, so a second
// restart serves them from disk without re-running anything.
func TestRecoveryResultsSurviveSecondRestart(t *testing.T) {
	lab, bundle := fixture(t)
	dir := t.TempDir()
	req := strategyReq(t, smallSearch(33))
	if _, err := req.Resolve(); err != nil {
		t.Fatal(err)
	}
	ids := seedStore(t, dir, []*jobstore.Record{
		{State: traceio.JobQueued, Workload: "resnet50", Request: req},
	})

	store, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Workers: 1, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := waitStatus(t, s, ids[0])
	if first.State != traceio.JobDone {
		t.Fatalf("recovered job finished %q (%s)", first.State, first.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	store2, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store2.Pending()); got != 0 {
		t.Fatalf("second restart found %d pending jobs, want 0", got)
	}
	s2, err := New(Config{
		Workers: 1, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
		Store:   store2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	st, ok := s2.jobStatus(ids[0])
	if !ok || st.State != traceio.JobDone || st.Result == nil {
		t.Fatalf("result lost across second restart: %+v (ok=%v)", st, ok)
	}
	if !json.Valid(st.Result.Strategy) || len(st.Result.Strategy) == 0 {
		t.Error("persisted strategy payload is not valid JSON")
	}
}

// TestRecoveryRederivesStaleCacheKey restarts over a record whose
// cache key was written against a registry trace that has since
// changed: the re-run resolves today's trace, so the strategy must be
// cached — and the record persisted — under today's key, the one the
// response's fingerprint belongs to and a resubmission looks up.
func TestRecoveryRederivesStaleCacheKey(t *testing.T) {
	lab, bundle := fixture(t)
	dir := t.TempDir()
	req := strategyReq(t, smallSearch(34))
	if _, err := req.Resolve(); err != nil {
		t.Fatal(err)
	}
	stale := traceio.CacheKey(strings.Repeat("0", 64), req.Search)
	ids := seedStore(t, dir, []*jobstore.Record{
		{State: traceio.JobRunning, Workload: "resnet50", CacheKey: stale, Request: req},
	})

	store, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Workers: 1, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	st := waitStatus(t, s, ids[0])
	if st.State != traceio.JobDone || st.Result == nil {
		t.Fatalf("recovered job finished %q (%s)", st.State, st.Error)
	}
	want := traceio.CacheKey(st.Result.Fingerprint, req.Search)
	if rec, _ := s.store.Get(ids[0]); rec.CacheKey != want {
		t.Errorf("record keeps cache key %q, want the re-derived %q", rec.CacheKey, want)
	}
	if _, ok := s.cache.Get(stale); ok {
		t.Error("strategy cached under the stale key")
	}
	if _, ok := s.cache.Get(want); !ok {
		t.Error("strategy not cached under the key of the fingerprint it answers with")
	}
	// What a client sees: resubmitting the request is a hit.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, again := submit(t, ts, smallSearch(34)); code != http.StatusOK || !again.Cached {
		t.Errorf("resubmission after recovery: code %d, status %+v; want a cached 200", code, again)
	}
}

// inlineResNet50 returns the ResNet-50 trace as WriteWorkload indents
// it (trimmed, as a decoded RawMessage holds it) and compacted.
func inlineResNet50(t *testing.T) (indented, compact []byte) {
	t.Helper()
	var buf, c bytes.Buffer
	if err := traceio.WriteWorkload(&buf, workload.ResNet50()); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&c, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes()), c.Bytes()
}

// TestRecoveryFinishesInlineTraceJobs is the zero-lost-jobs guarantee
// for the requests the fs store exists for: ones carrying their trace
// inline. A queued and a running job, one trace compact and one
// indented, finish after a restart with the registry trace's
// fingerprint and the strategy a named request gets — both from records
// this store wrote and from records indented by json.MarshalIndent, the
// form earlier versions of the store wrote.
func TestRecoveryFinishesInlineTraceJobs(t *testing.T) {
	lab, bundle := fixture(t)
	indented, compact := inlineResNet50(t)
	const search = `"search":{"pop":16,"gens":8,"seed":35}`

	ref, ts := newTestServer(t, Config{Workers: 1})
	code, st := submit(t, ts, `{"workload":"resnet50",`+search+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("named reference: code %d, want 202", code)
	}
	want := waitStatus(t, ref, st.ID)
	if want.State != traceio.JobDone {
		t.Fatalf("named reference: job %q (%s)", want.State, want.Error)
	}
	fingerprint := traceio.Fingerprint(workload.ResNet50().Trace)

	// records returns the queued and the running record as handleSubmit
	// and a worker hand them to the store.
	records := func() (queued, running *jobstore.Record) {
		recs := make([]*jobstore.Record, 2)
		for i, trace := range [][]byte{compact, indented} {
			req := strategyReq(t, `{"trace":`+string(trace)+`,`+search+`}`)
			m, err := req.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = &jobstore.Record{State: traceio.JobQueued, Workload: m.Name, Request: req}
		}
		return recs[0], recs[1]
	}

	written := t.TempDir()
	st0, err := jobstore.OpenFS(written, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	queued, running := records()
	var ids []string
	for _, rec := range []*jobstore.Record{queued, running} {
		id, err := st0.Add(rec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	running.State = traceio.JobRunning
	if err := st0.Update(running); err != nil {
		t.Fatal(err)
	}
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := t.TempDir()
	queued, running = records()
	running.State = traceio.JobRunning
	for i, rec := range []*jobstore.Record{queued, running} {
		rec.ID = ids[i]
		raw, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(legacy, rec.ID+".json"), append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, dir := range []string{written, legacy} {
		store, err := jobstore.OpenFS(dir, 64, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := len(store.Pending()); got != 2 {
			t.Fatalf("%s: recovered %d pending jobs, want 2", dir, got)
		}
		if p := store.Pending()[1]; p.State != traceio.JobRunning {
			t.Errorf("%s: running record recovered as %q", dir, p.State)
		} else if dir == written && !bytes.Equal(p.Request.Trace, indented) {
			t.Errorf("%s: running record's trace not kept as it was sent", dir)
		}
		s, err := New(Config{
			Workers: 1, Lab: lab,
			Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
			Store:   store,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got := waitStatus(t, s, id)
			switch {
			case got.State != traceio.JobDone || got.Result == nil:
				t.Errorf("%s: recovered job %s finished %q (%s), want done", dir, id, got.State, got.Error)
			case got.Result.Fingerprint != fingerprint:
				t.Errorf("%s: recovered job %s: fingerprint %q, want the registry trace's %q", dir, id, got.Result.Fingerprint, fingerprint)
			case !bytes.Equal(got.Result.Strategy, want.Result.Strategy):
				t.Errorf("%s: recovered job %s: strategy differs from the named request's", dir, id)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRejectedInlineBodyPersistsNothing pins the fs store's
// precondition from the server's side: only a request Resolve accepted
// reaches the store, so a body whose trace it refuses leaves no record.
func TestRejectedInlineBodyPersistsNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.OpenFS(dir, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: store})
	for _, body := range []string{
		`{"trace":{"name":"x","trace":[{"name":"a","class":"zebra"}]},"search":{}}`,
		`{"trace":"not a trace","search":{}}`,
		`{"workload":"resnet50","trace":{"name":"x","trace":[]},"search":{}}`,
		// No operators: refused at submit rather than failing model
		// building after taking a queue slot and a record.
		`{"trace":{"name":"x","trace":[]},"search":{"pop":16,"gens":4}}`,
		`{"trace":{"name":"x"},"search":{"pop":16,"gens":4}}`,
	} {
		if code, _ := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", body, code)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("rejected bodies left %d files in the store directory", len(entries))
	}
}
