package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npudvfs/internal/server/client"
	"npudvfs/internal/traceio"
)

// Tests for GET /v1/jobs/{id}?wait=: the long poll that answers once
// the job is terminal.

// getRaw GETs url and returns the status code and body.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// untilState polls the daemon at base until job id reports state.
func untilState(t *testing.T, base, id, state string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		code, raw := getRaw(t, base+"/v1/jobs/"+id)
		var st traceio.JobStatus
		if code == http.StatusOK && json.Unmarshal(raw, &st) == nil && st.State == state {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
}

// blocker is a deep search that its own timeout cancels after ms: it
// holds a worker for that long, so jobs queued behind it are still
// unsettled when a test starts waiting on them.
func blocker(seed int64, ms int) string {
	return fmt.Sprintf(`{"workload": "resnet50", "search": {"pop": 2000, "gens": 60000, "seed": %d, "timeout_ms": %d}}`, seed, ms)
}

// stopNow shuts s down with a spent drain budget, so its deep searches
// are cancelled rather than run out by the cleanup's drain.
func stopNow(s *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

// TestJobWaitAbsentOrZeroAnswersAsBefore: a GET without wait, or with
// a zero or empty one, answers at once with the bytes the plain
// endpoint has always written, for a done, a running and a queued job.
func TestJobWaitAbsentOrZeroAnswersAsBefore(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	u := ts.URL + "/v1/jobs/"
	_, small := submit(t, ts, smallSearch(31))
	waitJob(t, ts, small.ID)
	_, running := submit(t, ts, deepSearch(32))
	_, queued := submit(t, ts, deepSearch(33))
	untilState(t, ts.URL, running.ID, traceio.JobRunning)
	defer stopNow(s)

	for _, id := range []string{small.ID, running.ID, queued.ID} {
		st, ok := s.jobStatus(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		want, err := json.MarshalIndent(st, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		for _, q := range []string{"", "?wait=0", "?wait=0s", "?wait="} {
			start := time.Now()
			code, body := getRaw(t, u+id+q)
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("GET %s%s: %d %q, want 200 %q", id, q, code, body, want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("GET %s%s took %v; a zero wait must answer at once", id, q, d)
			}
		}
	}
}

// TestJobWaitRejectsBadDuration: a wait that is not a Go duration, or
// is negative, is a malformed request.
func TestJobWaitRejectsBadDuration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"abc", "-1s", "10"} {
		code, body := getRaw(t, ts.URL+"/v1/jobs/j00000001?wait="+q)
		if code != http.StatusBadRequest {
			t.Errorf("wait=%s: %d %s, want 400", q, code, body)
		}
	}
}

// TestJobWaitUnknownIDAnswersAtOnce: there is nothing to wait for on a
// job the store does not hold.
func TestJobWaitUnknownIDAnswersAtOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	if code, body := getRaw(t, ts.URL+"/v1/jobs/j99999999?wait=10s"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d %s, want 404", code, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("404 took %v; it must not wait", d)
	}
}

// TestJobWaitElapsesWithCurrentState: a job that does not settle inside
// the wait is answered with its current, non-terminal status.
func TestJobWaitElapsesWithCurrentState(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, st := submit(t, ts, deepSearch(41))
	defer stopNow(s)
	u := ts.URL + "/v1/jobs/"
	untilState(t, ts.URL, st.ID, traceio.JobRunning)
	const wait = 300 * time.Millisecond
	start := time.Now()
	code, raw := getRaw(t, u+st.ID+"?wait="+wait.String())
	d := time.Since(start)
	var got traceio.JobStatus
	if code != http.StatusOK || json.Unmarshal(raw, &got) != nil || got.State != traceio.JobRunning {
		t.Fatalf("elapsed wait: %d %s, want 200 running", code, raw)
	}
	if d < wait || d > 10*time.Second {
		t.Errorf("a %v wait answered after %v", wait, d)
	}
}

// TestJobWaitsWakeWithTheirOwnJob: eight waits parked on eight jobs
// queued behind a blocker each answer with their own job's terminal
// status, byte for byte what a plain GET returns afterwards.
func TestJobWaitsWakeWithTheirOwnJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 9})
	u := ts.URL + "/v1/jobs/"
	if code, _ := submit(t, ts, blocker(59, 500)); code != http.StatusAccepted {
		t.Fatalf("blocker submit: code %d", code)
	}
	ids := make([]string, 8)
	for i := range ids {
		code, st := submit(t, ts, smallSearch(int64(60+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		ids[i] = st.ID
	}
	bodies := make([][]byte, len(ids))
	start := time.Now()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(u + id + "?wait=20s")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("wait on %s: code %d", id, resp.StatusCode)
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	// The waits are answered when their jobs settle, not when the 20 s
	// runs out.
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("waits answered after %v", d)
	}
	for i, id := range ids {
		var st traceio.JobStatus
		if err := json.Unmarshal(bodies[i], &st); err != nil {
			t.Fatalf("wait on %s: %v in %q", id, err, bodies[i])
		}
		if st.ID != id || st.State != traceio.JobDone {
			t.Errorf("wait on %s answered job %s in state %q (%s)", id, st.ID, st.State, st.Error)
		}
		if _, plain := getRaw(t, u+id); !bytes.Equal(plain, bodies[i]) {
			t.Errorf("wait on %s answered %q; a plain GET now answers %q", id, bodies[i], plain)
		}
	}
}

// countingTransport counts the GETs that pass through it.
type countingTransport struct{ gets atomic.Int32 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet {
		c.gets.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientWaitIsOneRequest: against dvfsd, client.Wait learns that a
// job settled with one status call, however long the job ran. The poll
// interval is an hour, so a second call would time the test out.
func TestClientWaitIsOneRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// The blocker keeps the worker busy, so the job behind it is still
	// queued when Wait asks about it.
	_, first := submit(t, ts, blocker(71, 300))
	_, second := submit(t, ts, smallSearch(72))
	if code, st := getJob(t, ts, second.ID); code != http.StatusOK || traceio.IsTerminal(st.State) {
		t.Fatalf("second job already settled before Wait: %d %+v", code, st)
	}
	rt := &countingTransport{}
	c := client.New(ts.URL)
	c.HTTP = &http.Client{Transport: rt}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	st, err := c.Wait(ctx, second.ID, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Wait answered after %v, not when the job settled", d)
	}
	if st.State != traceio.JobDone {
		t.Fatalf("second job finished %q (%s)", st.State, st.Error)
	}
	if n := rt.gets.Load(); n != 1 {
		t.Errorf("Wait made %d GETs, want 1", n)
	}
	if code, st := getJob(t, ts, first.ID); code != http.StatusOK || st.State != traceio.JobCancelled {
		t.Errorf("blocker: %d %+v, want cancelled by its timeout", code, st)
	}
}

// TestShutdownReleasesParkedWait: a wait parked on a job that will not
// settle soon is answered, with a 200 and the job's current status,
// when shutdown begins, so neither the HTTP drain nor the job drain
// sits out its wait. Both orders are covered: dvfsd stops HTTP first
// (the server's ReleaseWaits is registered with RegisterOnShutdown),
// the tests' daemons stop the server first.
func TestShutdownReleasesParkedWait(t *testing.T) {
	for _, httpFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("httpFirst=%v", httpFirst), func(t *testing.T) {
			lab, bundle := fixture(t)
			s, err := New(Config{Workers: 1, Lab: lab, Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle}})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			hs := &http.Server{Handler: s.Handler()}
			hs.RegisterOnShutdown(s.ReleaseWaits)
			served := make(chan error, 1)
			go func() { served <- hs.Serve(ln) }()
			addr := "http://" + ln.Addr().String()

			_, st := postStrategy(t, addr, deepSearch(81), nil)
			untilState(t, addr, st.ID, traceio.JobRunning)
			type answer struct {
				code int
				raw  []byte
				err  error
			}
			answered := make(chan answer, 1)
			go func() {
				resp, err := http.Get(addr + "/v1/jobs/" + st.ID + "?wait=20s")
				if err != nil {
					answered <- answer{err: err}
					return
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				answered <- answer{resp.StatusCode, raw, err}
			}()
			time.Sleep(200 * time.Millisecond) // let the wait park

			// The drain budget runs out before the deep search ends, so
			// the job is cancelled then; a wait released when shutdown
			// begins still reads it running.
			const drain = 500 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			defer cancel()
			start := time.Now()
			// The HTTP drain gets no deadline of its own: only a released
			// wait lets it end before the 20 s run out.
			if httpFirst {
				_ = hs.Shutdown(context.Background())
				_ = s.Shutdown(ctx)
			} else {
				_ = s.Shutdown(ctx)
				_ = hs.Shutdown(context.Background())
			}
			if d := time.Since(start); d > drain+time.Second {
				t.Errorf("shutdown took %v with a parked wait; want under %v", d, drain+time.Second)
			}
			a := <-answered
			var got traceio.JobStatus
			if a.err != nil || a.code != http.StatusOK || json.Unmarshal(a.raw, &got) != nil || got.ID != st.ID {
				t.Fatalf("parked wait answered %d %q (%v); want 200 with job %s", a.code, a.raw, a.err, st.ID)
			}
			if got.State != traceio.JobRunning {
				t.Errorf("parked wait answered %q; released when shutdown began, it reads running", got.State)
			}
			if err := <-served; err != http.ErrServerClosed {
				t.Errorf("Serve returned %v", err)
			}
		})
	}
}
