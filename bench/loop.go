package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"npudvfs/internal/server/client"
	"npudvfs/internal/traceio"
)

// pollEvery is how often a waiting client re-reads its job.
const pollEvery = 5 * time.Millisecond

// sample is one logical request as its client saw it.
type sample struct {
	client, k int
	req       request
	// latencyMillis runs from just before Submit to the terminal
	// status in hand.
	latencyMillis float64
	// status is the terminal JobStatus; nil when err is set.
	status *traceio.JobStatus
	err    error
}

// rejected reports whether the request was shed with 503.
func (s *sample) rejected() bool {
	var se *client.StatusError
	return errors.As(s.err, &se) && se.Code == http.StatusServiceUnavailable
}

// roundTrips collects the client-side HTTP timings of one closed-loop
// client; only the traced phase installs it.
type roundTrips struct {
	submitMillis, pollMillis []float64
}

func (rt *roundTrips) observe(info client.RequestInfo) {
	ms := float64(info.Duration) / float64(time.Millisecond)
	switch {
	case info.Method == http.MethodPost:
		rt.submitMillis = append(rt.submitMillis, ms)
	case strings.HasPrefix(info.Path, "/v1/jobs/"):
		rt.pollMillis = append(rt.pollMillis, ms)
	}
}

// loadClient is one closed-loop client: its own keep-alive connection
// and, in the traced phase, its own round-trip log.
type loadClient struct {
	api       *client.Client
	transport *http.Transport
	trips     *roundTrips
}

func newLoadClients(base string, traced bool) []*loadClient {
	out := make([]*loadClient, clients)
	for c := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		lc := &loadClient{api: client.New(base), transport: tr}
		lc.api.HTTP = &http.Client{Transport: tr}
		if traced {
			lc.trips = &roundTrips{}
			lc.api.Trace = lc.trips.observe
		}
		out[c] = lc
	}
	return out
}

func closeLoadClients(cls []*loadClient) {
	for _, lc := range cls {
		lc.transport.CloseIdleConnections()
	}
}

// fetch is one logical request: submit, then poll until the job is
// terminal. A cache hit is terminal in the submit's own round trip.
func fetch(ctx context.Context, api *client.Client, req *traceio.StrategyRequest) (*traceio.JobStatus, error) {
	st, err := api.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	if traceio.IsTerminal(st.State) {
		return st, nil
	}
	return api.Wait(ctx, st.ID, pollEvery)
}

// issue performs request k of client c and times it from just before
// Submit to the terminal status in hand.
func issue(ctx context.Context, lc *loadClient, w *workloadDef, in *inputs, c, k int, req request) sample {
	s := sample{client: c, k: k, req: req}
	wire := in.wire(w, req)
	start := time.Now()
	s.status, s.err = fetch(ctx, lc.api, wire)
	s.latencyMillis = millisSince(start)
	return s
}

// drive runs the closed loop: every client issues its requests from
// step `from` on, one at a time, for as long as more(k) holds when a
// request is about to start. It returns the samples client by client.
func drive(ctx context.Context, cls []*loadClient, w *workloadDef, in *inputs, base int64, from int, more func(k int) bool) []sample {
	perClient := make([][]sample, len(cls))
	var wg sync.WaitGroup
	for c, lc := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := from; more(k) && ctx.Err() == nil; k++ {
				perClient[c] = append(perClient[c], issue(ctx, lc, w, in, c, k, w.gen(base, c, k)))
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, s := range perClient {
		out = append(out, s...)
	}
	return out
}

// fetchAll issues the given requests across the clients (request i on
// client i mod clients) and returns their samples in request order.
// Priming and probing use it: the order is fixed, the pairing with
// clients is not part of any sequence.
func fetchAll(ctx context.Context, cls []*loadClient, w *workloadDef, in *inputs, reqs []request) []sample {
	out := make([]sample, len(reqs))
	var wg sync.WaitGroup
	for c, lc := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += len(cls) {
				out[i] = issue(ctx, lc, w, in, c, -1, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
