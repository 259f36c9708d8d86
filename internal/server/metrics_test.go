package server

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/ga"
	"npudvfs/internal/traceio"
)

// goldenEvents drives every family: each closed-set label value at
// least once, two workloads (one in mixed case, one needing %q
// escapes), a search that ran fewer islands than the one before it, one
// with no measurable search time, a stage sample above the last finite
// bucket and a non-empty cache. The same list, spelled with the old
// writer methods, produced testdata/metrics_golden.txt at the parent
// commit (testdata/metrics_golden_parent_driver.go.txt).
func goldenEvents() *Server {
	s := &Server{met: newMetrics()}
	m := s.met
	m.recoveredJobs.set(3)
	m.queueDepth.set(5)
	for i := 0; i < 3; i++ {
		m.cacheMisses.inc()
	}
	m.cacheHits.inc()
	m.cacheHits.inc()
	m.jobsCached.inc()
	m.jobsCached.inc()
	m.running.add(1)
	m.running.add(1)
	m.running.add(-1)
	m.stageQueue.observe(0.0004)
	m.stageQueue.observe(0.25)
	m.stageModel.observe(1.5)
	m.stageModel.observe(45)
	m.stageSearch.observe(0.75)
	m.stageSearch.observe(301.5)
	s.observeGA("resnet50", &ga.Result{Evaluations: 9000, Generations: 40, Islands: 3, Migrations: 12, IslandEvaluations: []int{3000, 3100, 2900}}, 1.5)
	s.observeGA("bert", &ga.Result{Evaluations: 4000, Generations: 25, Islands: 1, IslandEvaluations: []int{4000}}, 2)
	s.observeGA("ResNet50", &ga.Result{Evaluations: 12000, Generations: 60, Islands: 2, Migrations: 8, IslandEvaluations: []int{6100, 5900}}, 0.75)
	s.observeGA("vit", &ga.Result{Evaluations: 120000000, Generations: 600, Islands: 2, Migrations: 4, IslandEvaluations: []int{60000000, 60000000}}, 0)
	s.observeGA("My \"Net\"\n", &ga.Result{Evaluations: 64, Generations: 2, Islands: 1, IslandEvaluations: []int{64}}, 0.003)
	m.jobsDone.inc()
	m.jobsDone.inc()
	m.jobsFailed.inc()
	m.jobsCancelled.inc()
	m.forwardsOut.inc()
	m.forwardsOut.inc()
	m.forwardsIn.inc()
	m.forwardsFallback.inc()
	m.relayErrors.inc()
	m.storeErrors.inc()
	m.storeErrors.inc()
	m.cacheEntries.set(7)
	return s
}

// TestMetricsGoldenAcrossCommits pins the /metrics bytes to what the
// hand-rolled exposition this registry replaced rendered for the same
// events: family order, HELP text, %d/%g formatting, %q label quoting
// and series-appear-on-first-write all survive.
func TestMetricsGoldenAcrossCommits(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenEvents().met.render()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("rendered %d lines, golden has %d", len(gl), len(wl))
}

var sampleLine = regexp.MustCompile(`^([a-z_]+)(?:\{(.*)\})? (\S+)$`)

// TestMetricsWellFormed parses the server's own exposition, with no
// series written and with all of them: every family is one HELP line,
// then one TYPE line, then only its own samples; a histogram's buckets
// are cumulative over ascending le and its +Inf bucket equals _count.
func TestMetricsWellFormed(t *testing.T) {
	for name, m := range map[string]*metrics{"empty": newMetrics(), "written": goldenEvents().met} {
		seen := map[string]bool{}
		var family, typ string
		// Per histogram series (its labels without le): the last le and
		// bucket count seen, and the +Inf bucket once it has been.
		type ladder struct {
			le, count, inf float64
		}
		ladders := map[string]*ladder{}
		sc := bufio.NewScanner(bytes.NewReader(m.render()))
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				family, _, _ = strings.Cut(rest, " ")
				if seen[family] {
					t.Errorf("%s line %d: family %s declared twice", name, n, family)
				}
				seen[family], typ = true, ""
				continue
			}
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				f, ty, _ := strings.Cut(rest, " ")
				if f != family || typ != "" {
					t.Errorf("%s line %d: TYPE %s does not follow its own HELP", name, n, f)
				}
				if ty != "counter" && ty != "gauge" && ty != "histogram" {
					t.Errorf("%s line %d: unknown TYPE %q", name, n, ty)
				}
				typ = ty
				continue
			}
			sm := sampleLine.FindStringSubmatch(line)
			if sm == nil {
				t.Fatalf("%s line %d: not a sample: %q", name, n, line)
			}
			v, err := strconv.ParseFloat(sm[3], 64)
			if err != nil {
				t.Errorf("%s line %d: value %q: %v", name, n, sm[3], err)
			}
			if typ != "histogram" {
				if typ == "" || sm[1] != family {
					t.Errorf("%s line %d: sample %s outside its family (%s, TYPE %q)", name, n, sm[1], family, typ)
				}
				continue
			}
			labels, le, isBucket := strings.Cut(sm[2], `,le="`)
			if ladders[labels] == nil {
				ladders[labels] = &ladder{le: math.Inf(-1), inf: -1}
			}
			ld := ladders[labels]
			switch sm[1] {
			case family + "_bucket":
				bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"`), 64)
				if !isBucket || err != nil {
					t.Fatalf("%s line %d: bucket without a numeric le: %q", name, n, line)
				}
				if bound <= ld.le || v < ld.count {
					t.Errorf("%s line %d: le %g count %g after le %g count %g", name, n, bound, v, ld.le, ld.count)
				}
				ld.le, ld.count = bound, v
				if math.IsInf(bound, 1) {
					ld.inf = v
				}
			case family + "_sum":
			case family + "_count":
				if v != ld.inf {
					t.Errorf("%s line %d: _count %g, +Inf bucket %g", name, n, v, ld.inf)
				}
			default:
				t.Errorf("%s line %d: sample %s outside histogram %s", name, n, sm[1], family)
			}
		}
		if len(seen) != len(m.families) {
			t.Errorf("%s: %d families rendered, %d declared", name, len(seen), len(m.families))
		}
		if name == "written" && len(ladders) != 3 {
			t.Errorf("written: %d histogram series checked, want the 3 stages", len(ladders))
		}
	}
}

// blockingWriter is a scraper that stops reading: Write parks until
// release is closed.
type blockingWriter struct {
	httptest.ResponseRecorder
	entered, release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(p), nil
}

// TestStalledScrapeDoesNotBlockWriters: /metrics must not hold the
// metrics lock while it writes to the client, or one stalled scraper
// blocks every submission's counter writes.
func TestStalledScrapeDoesNotBlockWriters(t *testing.T) {
	s := &Server{met: newMetrics(), cache: newStrategyCache(1)}
	w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		s.handleMetrics(w, nil)
	}()
	<-w.entered
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		s.met.cacheHits.inc()
		s.met.jobsCached.inc()
	}()
	select {
	case <-wrote:
	case <-time.After(10 * time.Second):
		t.Error("counter writes blocked behind a stalled /metrics reader")
	}
	close(w.release)
	<-scraped
	<-wrote
}

// parkingStore is a job store whose first Add publishes its record and
// then parks until release is closed, as a stalled disk would.
type parkingStore struct {
	jobstore.Store
	parked           atomic.Bool
	entered, release chan struct{}
	parkedID         string // written before entered is closed
}

func (s *parkingStore) Add(rec *jobstore.Record) (string, error) {
	id, err := s.Store.Add(rec)
	if s.parked.CompareAndSwap(false, true) {
		s.parkedID = id
		close(s.entered)
		<-s.release
	}
	return id, err
}

// TestStalledStoreWriteDoesNotBlockServer: handleSubmit writes the job
// store outside s.mu, so a cold submit stalled in store.Add (disk I/O
// on the fs backend) holds up neither another submit nor Shutdown.
// Resumed into a closed server, it answers 503 and takes back the
// record it published.
func TestStalledStoreWriteDoesNotBlockServer(t *testing.T) {
	lab, bundle := fixture(t)
	store := &parkingStore{
		Store:   jobstore.NewMemory(64, ""),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	s, err := New(Config{
		Workers: 1, Lab: lab, Store: store,
		Bundles: map[string]*traceio.ModelBundle{"resnet50": bundle},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) <-chan int {
		code := make(chan int, 1)
		go func() {
			w := httptest.NewRecorder()
			s.handleSubmit(w, httptest.NewRequest("POST", "/v1/strategies", strings.NewReader(body)))
			code <- w.Code
		}()
		return code
	}
	parked := post(smallSearch(1))
	<-store.entered

	select {
	case code := <-post(smallSearch(2)):
		if code != http.StatusAccepted {
			t.Errorf("cold submit beside a stalled store write: code %d, want 202", code)
		}
	case <-time.After(10 * time.Second):
		t.Error("a cold submit blocked behind another submit's stalled store write")
	}
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		stopped <- s.Shutdown(ctx)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Error("Shutdown blocked behind a stalled store write")
	}

	close(store.release)
	if code := <-parked; code != http.StatusServiceUnavailable {
		t.Errorf("submit resumed after Shutdown: code %d, want 503", code)
	}
	if _, ok := store.Get(store.parkedID); ok {
		t.Errorf("record %s, published while Shutdown ran, is still in the store", store.parkedID)
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One byte over, all of it read by the server before it answers, so
	// the client never sees a reset mid-upload.
	body := strings.Repeat(" ", maxRequestBytes+1)
	resp, err := http.Post(ts.URL+"/v1/strategies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413", resp.StatusCode)
	}
}
