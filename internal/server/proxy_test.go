package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"npudvfs/internal/cluster/ring"
)

// peerBody is a peer's response body that counts its Close calls.
type peerBody struct {
	io.Reader
	closes int
}

func (b *peerBody) Close() error {
	b.closes++
	return nil
}

// peerTransport answers every proxied request with one canned response
// and keeps the body it handed out.
type peerTransport struct {
	code int
	body string
	sent *peerBody
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.code == 0 {
		return nil, errors.New("injected: peer unreachable")
	}
	p.sent = &peerBody{Reader: strings.NewReader(p.body)}
	return &http.Response{StatusCode: p.code, Header: http.Header{}, Body: p.sent, Request: req}, nil
}

// hungUpWriter is a client that went away: the status line goes out,
// the first body write fails.
type hungUpWriter struct{ *httptest.ResponseRecorder }

func (hungUpWriter) Write([]byte) (int, error) { return 0, errors.New("injected: client hung up") }

// TestProxyClosesPeerBodyOnce is the behaviour the respclose analyzer
// stood for on the forwarding path: whatever the owner answered and
// whether or not the relay to the client survived, the peer's response
// body is closed exactly once — a leaked one pins a connection of the
// shared peers transport.
func TestProxyClosesPeerBodyOnce(t *testing.T) {
	const job = `{"id": "n2-j00000001", "state": "done"}` + "\n"
	cases := []struct {
		name       string
		code       int
		body       string
		hungUp     bool
		wantOK     bool
		wantRelays float64
	}{
		{name: "relayed 200", code: 200, body: job, wantOK: true},
		{name: "relayed 4xx", code: 404, body: `{"error": "unknown job"}` + "\n", wantOK: true},
		{name: "client hang-up mid-copy", code: 200, body: job, hungUp: true, wantOK: true, wantRelays: 1},
		{name: "peer unreachable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := &peerTransport{code: tc.code, body: tc.body}
			s := &Server{nodeID: "n1", met: newMetrics(), peers: &http.Client{Transport: rt}}
			rec := httptest.NewRecorder()
			var w http.ResponseWriter = rec
			if tc.hungUp {
				w = hungUpWriter{rec}
			}
			ok := s.proxy(w, ring.Node{ID: "n2", Addr: "http://n2.test/"}, http.MethodGet, "/v1/jobs/n2-j00000001", nil)
			if ok != tc.wantOK {
				t.Fatalf("proxy returned %v, want %v", ok, tc.wantOK)
			}
			if !tc.wantOK {
				if rt.sent != nil || rec.Body.Len() != 0 {
					t.Fatalf("unreachable peer still produced a response")
				}
				return
			}
			if rt.sent.closes != 1 {
				t.Errorf("peer body closed %d times, want exactly once", rt.sent.closes)
			}
			if rec.Code != tc.code {
				t.Errorf("relayed status %d, want %d", rec.Code, tc.code)
			}
			if !tc.hungUp && rec.Body.String() != tc.body {
				t.Errorf("relayed body %q, want %q", rec.Body.String(), tc.body)
			}
			if got := s.met.relayErrors.v; got != tc.wantRelays {
				t.Errorf("relay errors = %v, want %v", got, tc.wantRelays)
			}
			if got := s.met.forwardsOut.v; got != 1 {
				t.Errorf("forwards out = %v, want 1", got)
			}
		})
	}
}
