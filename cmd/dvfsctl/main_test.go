package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npudvfs/internal/cluster/ring"
	"npudvfs/internal/server/client"
	"npudvfs/internal/traceio"
)

// TestGlobalFlagsBothForms: the global flags precede the command in
// the "-addr URL" and the "-addr=URL" form alike. The hand-rolled loop
// this replaced took only the first and printed usage for the second.
func TestGlobalFlagsBothForms(t *testing.T) {
	const text = "dvfsd_queue_depth 0\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(text))
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"-addr", ts.URL, "metrics"},
		{"-addr=" + ts.URL, "metrics"},
		{"--addr=" + ts.URL, "metrics"},
		{"-addr=" + strings.TrimPrefix(ts.URL, "http://"), "metrics"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Errorf("%q: %v (stderr %q)", args, err, stderr.String())
			continue
		}
		if stdout.String() != text {
			t.Errorf("%q printed %q, want %q", args, stdout.String(), text)
		}
	}

	path := filepath.Join(t.TempDir(), "ring.json")
	if err := os.WriteFile(path, []byte(`{"version": 1, "vnodes": 64, "nodes": [
		{"id": "n1", "addr": "http://127.0.0.1:7071"},
		{"id": "n2", "addr": "http://127.0.0.1:7072"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var want string
	for i, args := range [][]string{
		{"-ring", path, "owner", "-workload", "resnet50", "-seed", "7"},
		{"-ring=" + path, "owner", "-workload", "resnet50", "-seed", "7"},
		{"-addr=" + ts.URL, "-ring=" + path, "owner", "-workload", "resnet50", "-seed", "7"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%q: %v (stderr %q)", args, err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "owner: n") {
			t.Errorf("%q printed no owner:\n%s", args, stdout.String())
		}
		if i == 0 {
			want = stdout.String()
		} else if stdout.String() != want {
			t.Errorf("%q printed %q, want %q", args, stdout.String(), want)
		}
	}

	for _, args := range [][]string{nil, {"-addr=" + ts.URL}, {"nonsense"}, {"bench"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want the usage error", args, err)
		}
	}
}

// TestRouteFollowsRingOwner pins forRequest, the client-side ring
// router: a submission goes to its key's owner when a ring is loaded
// and the owner is a known peer, and to the base daemon otherwise.
func TestRouteFollowsRingOwner(t *testing.T) {
	rg, err := ring.New([]ring.Node{
		{ID: "n1", Addr: "http://127.0.0.1:7071"},
		{ID: "n2", Addr: "http://127.0.0.1:7072"},
	}, ring.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	base := client.New("http://base")
	peers := map[string]*client.Client{
		"n1": client.New("http://127.0.0.1:7071"),
		"n2": client.New("http://127.0.0.1:7072"),
	}
	req := &traceio.StrategyRequest{
		Workload: "resnet50",
		Search:   traceio.SearchSpec{Pop: 16, Gens: 8, Seed: 1},
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	want := rg.Owner(key).ID
	if got := (&ctl{base: base, rg: rg, peers: peers}).forRequest(req); got != peers[want] {
		t.Errorf("forRequest picked %s, want owner %s (%s)", got.BaseURL, want, peers[want].BaseURL)
	}
	if (&ctl{base: base, peers: peers}).forRequest(req) != base {
		t.Error("without a ring forRequest must return the base client")
	}
	// The daemon attributes the 4xx of a request with no key.
	if (&ctl{base: base, rg: rg, peers: peers}).forRequest(&traceio.StrategyRequest{}) != base {
		t.Error("an unresolvable request must fall back to the base client")
	}
	if (&ctl{base: base, rg: rg, peers: map[string]*client.Client{}}).forRequest(req) != base {
		t.Error("an owner missing from the peers must fall back to the base client")
	}
}
