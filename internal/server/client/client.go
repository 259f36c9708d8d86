// Package client is the Go client for the dvfsd strategy service. It
// speaks the traceio wire contract over plain net/http and is the
// implementation behind cmd/dvfsctl.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"npudvfs/internal/traceio"
)

// Client talks to one dvfsd instance.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// Trace, if set, is invoked after every HTTP round trip the client
	// makes — including each poll inside Wait and each retry attempt —
	// with the request's timing and outcome. It must be safe for
	// concurrent use; bench/'s traced phase installs one to time submit
	// and poll round trips.
	Trace func(RequestInfo)
	// Retry, if set, retries transient failures (transport errors and
	// retryable 5xx responses) with bounded jittered backoff. Nil means
	// one attempt per call: every failure is returned as it happened.
	Retry *Retry
}

// Retry is a bounded exponential-backoff policy. 503 is deliberately
// NOT retried: dvfsd answers 503 for queue-full load shedding, and
// hammering a saturated daemon defeats the shedding.
type Retry struct {
	// Attempts is the total number of tries (default 3 when Retry is
	// non-nil).
	Attempts int
	// Base is the first backoff delay (default 100ms); each retry
	// doubles it up to Cap (default 2s).
	Base time.Duration
	Cap  time.Duration
	// Seed seeds the jitter stream so callers that need reproducible
	// schedules (frozen-seed methodology) get one; 0 uses seed 1.
	Seed int64

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// backoff returns the jittered delay before retry attempt n (0-based):
// a uniformly random fraction of min(Base·2ⁿ, Cap), so synchronized
// clients desynchronize instead of re-colliding.
func (r *Retry) backoff(n int) time.Duration {
	r.once.Do(func() {
		seed := r.Seed
		if seed == 0 {
			seed = 1
		}
		// Explicit seeded source (never the process-global RNG): the
		// jitter stream is reproducible for a fixed Retry.Seed.
		r.rng = rand.New(rand.NewSource(seed))
	})
	base := r.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cp := r.Cap
	if cp <= 0 {
		cp = 2 * time.Second
	}
	d := base << uint(n)
	if d > cp || d <= 0 {
		d = cp
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(d)) + 1)
}

func (r *Retry) attempts() int {
	if r.Attempts < 1 {
		return 3
	}
	return r.Attempts
}

// retryable reports whether a failed attempt should be retried:
// transport errors and 5xx responses, except 503 (load shedding).
func retryable(code int, err error) bool {
	if code == 0 {
		return err != nil // transport failure, no response arrived
	}
	return code >= 500 && code != http.StatusServiceUnavailable
}

// RequestInfo describes one completed HTTP round trip.
type RequestInfo struct {
	Method string
	Path   string
	// Code is the HTTP status, or 0 when the request failed in
	// transport before a response arrived.
	Code     int
	Err      error
	Duration time.Duration
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dvfsd: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// trace reports one finished round trip to the Trace hook, if any.
func (c *Client) trace(method, path string, code int, err error, start time.Time) {
	if c.Trace != nil {
		c.Trace(RequestInfo{Method: method, Path: path, Code: code, Err: err, Duration: time.Since(start)})
	}
}

// do runs one API call, retrying transient failures when c.Retry is
// set. body is a byte slice — not a Reader — so every attempt replays
// it from the start.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	attempts := 1
	if c.Retry != nil {
		attempts = c.Retry.attempts()
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.Retry.backoff(n - 1)):
			}
		}
		code, err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(code, err) {
			return err
		}
	}
	return lastErr
}

// doOnce runs a single attempt and returns the HTTP status code (0 on
// transport failure) alongside the error.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	code, raw, err := c.roundTrip(ctx, method, path, body)
	if err != nil {
		return code, err
	}
	if code >= 400 {
		var e traceio.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return code, &StatusError{Code: code, Message: e.Error}
		}
		return code, &StatusError{Code: code, Message: string(bytes.TrimSpace(raw))}
	}
	if out == nil {
		return code, nil
	}
	return code, json.Unmarshal(raw, out)
}

// roundTrip sends one request and reads the whole response. It is the
// only place a *http.Response exists in this package, so the one defer
// below closes every body on every path
// (TestEveryResponseBodyClosedOnce counts them).
// code is 0 when no response arrived; a body that fails mid-read
// returns the status with the read error.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte) (code int, raw []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http().Do(req)
	if err != nil {
		c.trace(method, path, 0, err, start)
		return 0, nil, err
	}
	c.trace(method, path, resp.StatusCode, nil, start)
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// Submit posts a strategy request and returns the job it created (or
// the completed cached job).
func (c *Client) Submit(ctx context.Context, req *traceio.StrategyRequest) (*traceio.JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var st traceio.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/strategies", body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*traceio.JobStatus, error) {
	var st traceio.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait returns a job's status once it is terminal, or ctx's error. Each
// call asks the server to hold the answer until the job settles
// (GET /v1/jobs/{id}?wait=, for what is left of ctx, at most
// traceio.MaxJobWait), so a job that settles inside that window costs
// one request. poll is the retry interval (default 100 ms): Wait
// sleeps it only when a server answers non-terminal before the wait is
// up, as one that ignores wait or is shutting down does; a wait that
// ran its full length is renewed at once.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*traceio.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		wait := traceio.MaxJobWait
		if dl, ok := ctx.Deadline(); ok {
			// A deadline already past asks for no wait: a negative one
			// is answered 400.
			wait = max(min(wait, time.Until(dl)), 0)
		}
		asked := time.Now()
		var st traceio.JobStatus
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait="+wait.String(), nil, &st); err != nil {
			return nil, err
		}
		if traceio.IsTerminal(st.State) {
			return &st, nil
		}
		if wait > 0 && time.Since(asked) >= wait {
			continue
		}
		select {
		case <-ctx.Done():
			return &st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Cluster fetches the daemon's cluster status: node identity, store
// backend and ring view.
func (c *Client) Cluster(ctx context.Context) (*traceio.ClusterStatus, error) {
	var st traceio.ClusterStatus
	if err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Metrics returns the raw Prometheus exposition text. It makes one
// attempt; Retry does not apply.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	code, raw, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", &StatusError{Code: code, Message: string(bytes.TrimSpace(raw))}
	}
	return string(raw), nil
}
