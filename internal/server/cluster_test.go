package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"npudvfs/internal/cluster/ring"
	"npudvfs/internal/traceio"
)

// clusterNode is one live daemon of a test cluster.
type clusterNode struct {
	s    *Server
	id   string
	addr string // http://host:port
}

// newCluster boots count bundle-warmed daemons sharing one ring built
// from their actual bound addresses, each behind a real TCP listener
// (the nodes must reach each other over HTTP to proxy).
func newCluster(t *testing.T, count int) []clusterNode {
	t.Helper()
	lab, bundle := fixture(t)
	lns := make([]net.Listener, count)
	nodes := make([]ring.Node, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		nodes[i] = ring.Node{ID: fmt.Sprintf("n%d", i+1), Addr: "http://" + ln.Addr().String()}
	}
	r, err := ring.New(nodes, ring.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]clusterNode, count)
	for i := range out {
		s, err := New(Config{
			Workers: 1, QueueDepth: 8, Lab: lab,
			Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
			Ring:    r, NodeID: nodes[i].ID,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		hs.RegisterOnShutdown(s.ReleaseWaits)
		ln := lns[i]
		go func() { _ = hs.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = hs.Shutdown(ctx)
			_ = s.Shutdown(ctx)
		})
		out[i] = clusterNode{s: s, id: nodes[i].ID, addr: nodes[i].Addr}
	}
	return out
}

// postStrategy submits a request body to one node, with optional extra
// headers, returning the status code and decoded job.
func postStrategy(t *testing.T, addr, body string, hdr map[string]string) (int, *traceio.JobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, addr+"/v1/strategies", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return resp.StatusCode, nil
	}
	var st traceio.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return resp.StatusCode, &st
}

// pollJob polls one node for a job until it is terminal.
func pollJob(t *testing.T, addr, id string) *traceio.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(addr + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s at %s: code %d (%s)", id, addr, resp.StatusCode, raw)
		}
		var st traceio.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if traceio.IsTerminal(st.State) {
			return &st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestClusterForwardsToOwner is the tentpole end-to-end: a submission
// to a NON-owner node is proxied to the ring owner (the job ID carries
// the owner's prefix), pollable through any node, answered from the
// owner's cache on resubmission — and the strategy is byte-identical
// to a standalone single-node daemon's.
func TestClusterForwardsToOwner(t *testing.T) {
	nodes := newCluster(t, 3)

	body := smallSearch(7)
	var req traceio.StrategyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].s.ring.Owner(key).ID
	var ownerNode, other, third clusterNode
	for _, n := range nodes {
		switch {
		case n.id == owner:
			ownerNode = n
		case other.id == "":
			other = n
		default:
			third = n
		}
	}

	// Submit via a non-owner: accepted, and the ID proves the owner
	// served it.
	code, st := postStrategy(t, other.addr, body, nil)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit via non-owner %s: code %d", other.id, code)
	}
	if got := nodePrefix(st.ID); got != owner {
		t.Fatalf("job %s landed on %q, want ring owner %q", st.ID, got, owner)
	}

	// Poll through a different non-owner: the poll is routed by the
	// ID's node prefix.
	done := pollJob(t, third.addr, st.ID)
	if done.State != traceio.JobDone {
		t.Fatalf("job finished %q (%s)", done.State, done.Error)
	}

	// Resubmit through the third node: the owner's cache answers.
	code, hit := postStrategy(t, third.addr, body, nil)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmit via %s: code %d cached=%v, want 200 cached", third.id, code, hit.Cached)
	}
	if !bytes.Equal(hit.Result.Strategy, done.Result.Strategy) {
		t.Error("cached strategy differs from the original")
	}

	// Forward accounting: the submitting node proxied out, the owner
	// received in.
	if m := scrape(t, other.addr); !strings.Contains(m, `dvfsd_cluster_forwards_total{direction="out"}`) {
		t.Errorf("non-owner %s metrics show no outbound forwards:\n%s", other.id, m)
	}
	if m := scrape(t, ownerNode.addr); !strings.Contains(m, `dvfsd_cluster_forwards_total{direction="in"}`) {
		t.Errorf("owner %s metrics show no inbound forwards:\n%s", owner, m)
	}

	// Byte-identity with a standalone daemon: the ring only routes; it
	// must not change what is computed.
	_, ts := newTestServer(t, Config{Workers: 1})
	scode, sst := submit(t, ts, body)
	if scode != http.StatusAccepted {
		t.Fatalf("standalone submit: code %d", scode)
	}
	standalone := waitJob(t, ts, sst.ID)
	var a, b bytes.Buffer
	if err := json.Compact(&a, done.Result.Strategy); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, standalone.Result.Strategy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("cluster strategy differs from single-node:\n--- cluster ---\n%s\n--- single ---\n%s", a.Bytes(), b.Bytes())
	}
}

// TestClusterForwardsWait: a ?wait= poll sent to a node that does not
// own the job is forwarded with its query, so the owner holds it until
// the job settles and one call brings back the terminal status.
func TestClusterForwardsWait(t *testing.T) {
	nodes := newCluster(t, 2)
	if to := nodes[0].s.peers.Timeout; to <= traceio.MaxJobWait {
		t.Fatalf("peer timeout %v does not exceed the wait cap %v: a forwarded wait would be cut", to, traceio.MaxJobWait)
	}
	// A blocker on the owner keeps the job under test queued.
	body := smallSearch(91)
	var req traceio.StrategyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	owner, other := nodes[0], nodes[1]
	if owner.s.ring.Owner(key).ID != owner.id {
		owner, other = other, owner
	}
	hdr := map[string]string{ForwardHeader: "test"}
	if code, _ := postStrategy(t, owner.addr, blocker(90, 300), hdr); code != http.StatusAccepted {
		t.Fatalf("blocker on owner %s: code %d", owner.id, code)
	}
	code, st := postStrategy(t, owner.addr, body, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit on owner %s: code %d", owner.id, code)
	}

	resp, err := http.Get(other.addr + "/v1/jobs/" + st.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got traceio.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded wait: code %d, %v", resp.StatusCode, err)
	}
	if got.ID != st.ID || got.State != traceio.JobDone {
		t.Errorf("forwarded wait answered job %s in state %q (%s); want %s done in one call", got.ID, got.State, got.Error, st.ID)
	}
}

// TestClusterLoopGuard pins the single-hop contract: a request already
// carrying the forward header is served locally even by a non-owner,
// so disagreeing ring files can cost an extra hop but never a loop.
func TestClusterLoopGuard(t *testing.T) {
	nodes := newCluster(t, 3)
	body := smallSearch(11)
	var req traceio.StrategyRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].s.ring.Owner(key).ID
	var other clusterNode
	for _, n := range nodes {
		if n.id != owner {
			other = n
			break
		}
	}
	code, st := postStrategy(t, other.addr, body, map[string]string{ForwardHeader: "forged"})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("forwarded submit: code %d", code)
	}
	if got := nodePrefix(st.ID); got != other.id {
		t.Fatalf("pre-forwarded request landed on %q, want local node %q (no second hop)", got, other.id)
	}
	done := pollJob(t, other.addr, st.ID)
	if done.State != traceio.JobDone {
		t.Fatalf("job finished %q (%s)", done.State, done.Error)
	}
}

// TestClusterEndpoint checks /v1/cluster reports the node identity and
// the full ring, with exactly one self marker per node.
func TestClusterEndpoint(t *testing.T) {
	nodes := newCluster(t, 3)
	for _, n := range nodes {
		resp, err := http.Get(n.addr + "/v1/cluster")
		if err != nil {
			t.Fatal(err)
		}
		var st traceio.ClusterStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Node != n.id || st.Store != "memory" || len(st.Nodes) != 3 {
			t.Fatalf("cluster status of %s: %+v", n.id, st)
		}
		selfs := 0
		for _, m := range st.Nodes {
			if m.Self {
				selfs++
				if m.ID != n.id {
					t.Errorf("node %s marks %s as self", n.id, m.ID)
				}
			}
		}
		if selfs != 1 {
			t.Errorf("node %s reports %d self markers", n.id, selfs)
		}
	}
}

// TestClusterRejectsBadConfig pins New's validation.
func TestClusterRejectsBadConfig(t *testing.T) {
	lab, bundle := fixture(t)
	r, err := ring.New([]ring.Node{{ID: "a", Addr: "http://127.0.0.1:1"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Lab: lab, Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle}}
	noID := base
	noID.Ring = r
	if _, err := New(noID); err == nil {
		t.Error("New accepted a ring without a node ID")
	}
	stranger := base
	stranger.Ring = r
	stranger.NodeID = "not-a-member"
	if _, err := New(stranger); err == nil {
		t.Error("New accepted a node ID absent from the ring")
	}
}
