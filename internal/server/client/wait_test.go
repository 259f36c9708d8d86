package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"npudvfs/internal/traceio"
)

// jobServer answers GET /v1/jobs/{id} through answer, which sees the
// request's wait parameter and the 1-based request count.
func jobServer(answer func(w http.ResponseWriter, r *http.Request, n int32)) (*httptest.Server, *int32) {
	var n int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		answer(w, r, atomic.AddInt32(&n, 1))
	}))
	return ts, &n
}

func state(w http.ResponseWriter, s string) {
	w.Write([]byte(`{"id": "j00000001", "state": "` + s + `"}`))
}

// TestWaitAsksForBoundedWait: Wait asks the server to hold its answer
// for what is left of ctx, never more than traceio.MaxJobWait.
func TestWaitAsksForBoundedWait(t *testing.T) {
	var asked atomic.Value
	ts, _ := jobServer(func(w http.ResponseWriter, r *http.Request, _ int32) {
		asked.Store(r.URL.Query().Get("wait"))
		state(w, traceio.JobDone)
	})
	defer ts.Close()
	c := New(ts.URL)

	if _, err := c.Wait(context.Background(), "j00000001", 0); err != nil {
		t.Fatal(err)
	}
	if got := asked.Load(); got != traceio.MaxJobWait.String() {
		t.Errorf("without a deadline Wait asked wait=%v, want %v", got, traceio.MaxJobWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, "j00000001", 0); err != nil {
		t.Fatal(err)
	}
	d, err := time.ParseDuration(asked.Load().(string))
	if err != nil || d <= 4*time.Second || d > 5*time.Second {
		t.Errorf("with 5 s left Wait asked wait=%v (%v), want at most 5s", asked.Load(), err)
	}
}

// TestWaitPollsAServerThatIgnoresWait: a server that answers at once
// whatever the wait (an older dvfsd) is re-asked every poll interval
// until the job settles.
func TestWaitPollsAServerThatIgnoresWait(t *testing.T) {
	ts, hits := jobServer(func(w http.ResponseWriter, _ *http.Request, n int32) {
		if n <= 3 {
			state(w, traceio.JobRunning)
			return
		}
		state(w, traceio.JobDone)
	})
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const poll = 20 * time.Millisecond
	start := time.Now()
	st, err := New(ts.URL).Wait(ctx, "j00000001", poll)
	if err != nil || st.State != traceio.JobDone {
		t.Fatalf("Wait: %+v, %v", st, err)
	}
	if got := atomic.LoadInt32(hits); got != 4 {
		t.Errorf("server saw %d requests, want 4", got)
	}
	if d := time.Since(start); d < 3*poll {
		t.Errorf("three retries took %v, under three poll intervals", d)
	}
}

// TestWaitHonoursCancellation: Wait returns ctx's error when ctx ends,
// both between the retries to a server that ignores wait and while a
// request is parked on one that honours it.
func TestWaitHonoursCancellation(t *testing.T) {
	polling, _ := jobServer(func(w http.ResponseWriter, _ *http.Request, _ int32) { state(w, traceio.JobRunning) })
	defer polling.Close()
	parking, _ := jobServer(func(w http.ResponseWriter, r *http.Request, _ int32) {
		<-r.Context().Done()
		state(w, traceio.JobRunning)
	})
	defer parking.Close()
	for name, url := range map[string]string{"polling": polling.URL, "parked": parking.URL} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := New(url).Wait(ctx, "j00000001", 10*time.Millisecond)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("Wait returned %v, want the deadline", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("Wait returned %v after its ctx ended", d)
			}
		})
	}
}
