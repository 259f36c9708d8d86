package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
