package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"npudvfs/internal/traceio"
)

var errMidBody = errors.New("injected: connection reset mid-body")

// reply is one scripted response; torn makes the body fail with
// errMidBody once its bytes are consumed, instead of ending cleanly.
type reply struct {
	code int
	body string
	torn bool
}

// trackedBody is a response body that counts what the client does to it.
type trackedBody struct {
	reply
	off, reads, closes int
}

func (b *trackedBody) Read(p []byte) (int, error) {
	b.reads++
	if b.off == len(b.body) {
		if b.torn {
			return 0, errMidBody
		}
		return 0, io.EOF
	}
	n := copy(p, b.body[b.off:])
	b.off += n
	return n, nil
}

func (b *trackedBody) Close() error {
	b.closes++
	return nil
}

// scripted is an http.RoundTripper that answers request i with script[i]
// and keeps every body it handed out.
type scripted struct {
	script []reply
	bodies []*trackedBody
}

func (s *scripted) RoundTrip(req *http.Request) (*http.Response, error) {
	if len(s.bodies) == len(s.script) {
		return nil, fmt.Errorf("unscripted request %d: %s %s", len(s.bodies)+1, req.Method, req.URL.Path)
	}
	b := &trackedBody{reply: s.script[len(s.bodies)]}
	s.bodies = append(s.bodies, b)
	return &http.Response{StatusCode: b.code, Header: http.Header{}, Body: b, Request: req}, nil
}

// exchange is one scripted conversation and the verdict on the error
// the method under test returns for it.
type exchange struct {
	name   string
	script []reply
	wantOK func(error) bool
}

func succeeds(err error) bool { return err == nil }

// TestEveryResponseBodyClosedOnce is the behaviour the respclose
// analyzer stood for: whatever a method's exchange turns into — success,
// an API error with or without a JSON body, a body torn mid-read, a 502
// that is retried — each response the transport produced is closed
// exactly once, and Trace saw it before a byte of it was read.
func TestEveryResponseBodyClosedOnce(t *testing.T) {
	const status = `{"id": "j00000001", "state": "done"}`
	methods := []struct {
		name    string
		ok      string // a 200 body the method accepts
		retries bool
		call    func(ctx context.Context, c *Client) error
	}{
		{"Submit", status, true, func(ctx context.Context, c *Client) error {
			_, err := c.Submit(ctx, &traceio.StrategyRequest{Workload: "resnet50"})
			return err
		}},
		{"Job", status, true, func(ctx context.Context, c *Client) error {
			_, err := c.Job(ctx, "j00000001")
			return err
		}},
		{"Wait", status, true, func(ctx context.Context, c *Client) error {
			_, err := c.Wait(ctx, "j00000001", time.Millisecond)
			return err
		}},
		{"Health", `{"status": "ok"}`, true, func(ctx context.Context, c *Client) error { return c.Health(ctx) }},
		{"Cluster", `{"node": "n1", "store": "fs"}`, true, func(ctx context.Context, c *Client) error {
			_, err := c.Cluster(ctx)
			return err
		}},
		{"Metrics", "dvfsd_jobs_total 1\n", false, func(ctx context.Context, c *Client) error {
			_, err := c.Metrics(ctx)
			return err
		}},
	}
	wantStatus := func(code int, msg string) func(error) bool {
		return func(err error) bool {
			var se *StatusError
			return errors.As(err, &se) && se.Code == code && se.Message == msg &&
				err.Error() == fmt.Sprintf("dvfsd: %d %s: %s", code, http.StatusText(code), msg)
		}
	}
	for _, m := range methods {
		// Metrics takes the error body as text; the JSON methods unwrap it.
		jsonErr := "unknown job"
		if !m.retries {
			jsonErr = `{"error": "unknown job"}`
		}
		cases := []exchange{
			{"2xx", []reply{{code: 200, body: m.ok}}, succeeds},
			{"4xx JSON error", []reply{{code: 404, body: `{"error": "unknown job"}`}}, wantStatus(404, jsonErr)},
			{"4xx plain text", []reply{{code: 400, body: "bad request\n"}}, wantStatus(400, "bad request")},
			{"torn body", []reply{{code: 200, body: m.ok[:len(m.ok)/2], torn: true}}, func(err error) bool { return errors.Is(err, errMidBody) }},
		}
		if m.retries {
			cases = append(cases, exchange{"retried 502", []reply{{code: 502, body: `{"error": "transient"}`}, {code: 200, body: m.ok}}, succeeds})
		}
		if m.name == "Wait" {
			cases = append(cases, exchange{"three polls", []reply{
				{code: 200, body: `{"id": "j00000001", "state": "queued"}`},
				{code: 200, body: `{"id": "j00000001", "state": "running"}`},
				{code: 200, body: status},
			}, succeeds})
		}
		for _, tc := range cases {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				rt := &scripted{script: tc.script}
				c := New("http://dvfsd.test")
				c.HTTP = &http.Client{Transport: rt}
				c.Retry = &Retry{Attempts: 3, Base: time.Millisecond, Cap: 2 * time.Millisecond, Seed: 1}
				var traced []int
				c.Trace = func(ri RequestInfo) {
					traced = append(traced, ri.Code)
					if b := rt.bodies[len(rt.bodies)-1]; b.reads != 0 || b.closes != 0 {
						t.Errorf("Trace fired after the body was touched (%d reads, %d closes)", b.reads, b.closes)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := m.call(ctx, c); !tc.wantOK(err) {
					t.Errorf("%s returned %v", m.name, err)
				}
				if len(rt.bodies) != len(tc.script) {
					t.Errorf("client made %d requests, want %d", len(rt.bodies), len(tc.script))
				}
				for i, b := range rt.bodies {
					if b.closes != 1 {
						t.Errorf("response %d (%d): body closed %d times, want exactly once", i+1, b.code, b.closes)
					}
					if i >= len(traced) || traced[i] != b.code {
						t.Errorf("response %d: Trace saw codes %v, want %d at position %d", i+1, traced, b.code, i)
					}
				}
			})
		}
	}
}
