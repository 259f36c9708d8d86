package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"npudvfs/internal/traceio"
)

// Stress tests for the serving path's job lifecycle. Under -race these
// are the data-race gate for submit/poll/shutdown; without -race they
// still pin the logical invariants (no lost jobs, shutdown means
// quiesced) clients depend on.

// deepSearch is the largest search the API admits: its GA runs long
// enough (tens of seconds at full speed) to keep a worker busy for a
// whole test; cleanup force-cancels it at a generation boundary.
func deepSearch(seed int64) string {
	return fmt.Sprintf(`{"workload": "resnet50", "search": {"pop": 2000, "gens": 60000, "seed": %d}}`, seed)
}

// TestSubmitPollNoLostJobs reproduces the submit-path lifecycle race:
// before the fix, handleSubmit enqueued the job and only then let
// jobStore.add assign its ID, so a fast worker could finish the job —
// and add, seeing it terminal in an over-capacity store whose other
// entries are all live, would evict the job it was inserting. The
// submitter got a 202 with an ID that immediately 404s. The write of
// j.id also raced the worker's read of it (noteTerminal).
//
// Setup: QueueDepth 1 so the retention bound is tight, long-running
// jobs pinning most workers (the store is saturated with live
// entries), a stream of fast submissions through the remaining
// worker. With the fix (ID assigned and job published before the
// queue send, retention covering workers+queue+1) every accepted job
// is pollable from the moment submit returns until its result has
// been observed. The deep searches are cancelled at the end, not
// drained.
func TestSubmitPollNoLostJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 1})
	t.Cleanup(func() { stopNow(s) })

	for i := 0; i < 2; i++ {
		code, _ := submit(t, ts, deepSearch(int64(100+i)))
		if code != http.StatusAccepted {
			t.Fatalf("deep submit %d: code %d", i, code)
		}
	}

	iterations := 25
	if testing.Short() {
		iterations = 5
	}
	for i := 0; i < iterations; i++ {
		code, st := submit(t, ts, smallSearch(int64(1000+i)))
		if code != http.StatusAccepted {
			t.Fatalf("fast submit %d: code %d", i, code)
		}
		if st.ID == "" {
			t.Fatalf("fast submit %d: accepted without an ID", i)
		}
		// The accepted job must be pollable immediately — a 404 here
		// is the lost-job manifestation of the pre-fix ordering.
		if code, _ := getJob(t, ts, st.ID); code != http.StatusOK {
			t.Fatalf("fast submit %d: job %s lost right after 202 (GET %d)", i, st.ID, code)
		}
		// ... and the submit/poll chain must converge.
		deadline := time.Now().Add(time.Minute)
		for {
			code, polled := getJob(t, ts, st.ID)
			if code != http.StatusOK {
				t.Fatalf("fast submit %d: job %s lost mid-poll (GET %d)", i, st.ID, code)
			}
			if traceio.IsTerminal(polled.State) {
				if polled.State != traceio.JobDone {
					t.Fatalf("fast submit %d: state %q (%s)", i, polled.State, polled.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fast submit %d: job %s never finished", i, st.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestSubmitPollMetricsConcurrentStress fans concurrent submitters,
// pollers and /metrics scrapers at one server. Under -race this gates
// the whole serving path including the metrics mutex. Each submitter
// polls every accepted job until it is terminal: overload surfaces only
// as a 503 at submit, an accepted job is never lost and finishes done,
// and its repeat is a cache hit. Retention (37 here) is far above the
// four jobs live at once, so no job is evicted before its last poll.
func TestSubmitPollMetricsConcurrentStress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})

	perWorker := 25
	if testing.Short() {
		perWorker = 8
	}
	const submitters = 4
	var wg sync.WaitGroup
	errs := make(chan error, submitters*perWorker+1)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := int64(g*1000 + i + 1)
				code, st := submit(t, ts, smallSearch(seed))
				switch code {
				case http.StatusAccepted, http.StatusOK:
				case http.StatusServiceUnavailable:
					continue // queue-full rejects are load shedding, not loss
				default:
					errs <- fmt.Errorf("submitter %d: code %d", g, code)
					return
				}
				for {
					code, polled := getJob(t, ts, st.ID)
					if code != http.StatusOK {
						errs <- fmt.Errorf("submitter %d: job %s lost (GET %d)", g, st.ID, code)
						return
					}
					if traceio.IsTerminal(polled.State) {
						if polled.State != traceio.JobDone {
							errs <- fmt.Errorf("submitter %d: job %s finished %q (%s)", g, st.ID, polled.State, polled.Error)
							return
						}
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				if code, hit := submit(t, ts, smallSearch(seed)); code != http.StatusOK || !hit.Cached {
					errs <- fmt.Errorf("submitter %d: repeat of seed %d answered %d, want a 200 cache hit", g, seed, code)
					return
				}
			}
		}(g)
	}
	// Mid-run scrapes: operators read queue-depth curves while traffic
	// is in flight, so the metrics path must be race-clean against the
	// job lifecycle.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = metricsText(t, ts)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentShutdownWaits pins the drain contract: every Shutdown
// caller — not just the first — blocks until the workers have exited.
// Before the fix a second concurrent call returned nil immediately
// while searches were still draining, so callers treating "shutdown
// returned" as "daemon quiesced" raced the drain.
func TestConcurrentShutdownWaits(t *testing.T) {
	lab, bundle := fixture(t)
	s, err := New(Config{
		Workers: 1, Lab: lab,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One search long enough (tens of thousands of generations) that
	// the drain measurably outlives the second Shutdown call.
	code, st := submit(t, ts, `{"workload": "resnet50", "search": {"pop": 200, "gens": 30000, "seed": 3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	if _, ok := s.jobStatus(st.ID); !ok {
		t.Fatalf("job %s not in store", st.ID)
	}
	jobID := st.ID

	const callers = 3
	states := make(chan string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stagger the callers so all but the first hit the
			// already-closed path.
			time.Sleep(time.Duration(i) * 20 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				states <- fmt.Sprintf("error: %v", err)
				return
			}
			// The moment any Shutdown call returns nil, the daemon
			// must be quiesced: no worker is still mutating jobs.
			js, ok := s.jobStatus(jobID)
			if !ok {
				states <- "missing"
				return
			}
			states <- js.State
		}(i)
	}
	wg.Wait()
	close(states)
	for got := range states {
		if !traceio.IsTerminal(got) {
			t.Errorf("Shutdown returned nil while the job was still %q; drain not awaited", got)
		}
	}
}
