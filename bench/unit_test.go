package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"npudvfs/internal/traceio"
)

func TestNearestRankPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		p    int
		want float64
	}{{50, 50}, {90, 90}, {100, 100}, {1, 1}} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 0 {
			t.Errorf("p%d of 1..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Nearest rank rounds up: the median of five values is the third,
	// of four the second.
	if got := percentile([]float64{1, 2, 3, 4, 5}, 50); got < 3 || got > 3 {
		t.Errorf("median of five = %g, want 3", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got < 2 || got > 2 {
		t.Errorf("median of four = %g, want 2", got)
	}
	if got := median([]float64{9, 1, 5}); got < 5 || got > 5 {
		t.Errorf("median sorts a copy: got %g, want 5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesBeyond(100, 90); got != 10 {
		t.Fatalf("samples beyond p90 of 100 = %d, want 10", got)
	}
	if _, err := tail(make([]float64, 99)); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i)
	}
	got, err := tail(v)
	if err != nil || got < 89 || got > 89 {
		t.Errorf("p90 of 0..99 = %g, %v; want 89", got, err)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartUS: 0, EndUS: 10000},
		{ID: 2, Parent: 1, Name: "a", StartUS: 1000, EndUS: 5000},
		{ID: 3, Parent: 1, Name: "b", StartUS: 4000, EndUS: 7000},   // overlaps a by 1 ms
		{ID: 4, Parent: 1, Name: "c", StartUS: 9000, EndUS: 12000},  // sticks out by 2 ms
		{ID: 5, Parent: 2, Name: "a.a", StartUS: 2000, EndUS: 3000}, // grandchild: not the parent's
	}
	self := selfMillis(spans)
	// Covered: [1,7] and [9,10] ms = 7 ms of 10.
	for id, want := range map[int]float64{1: 3, 2: 3, 3: 3, 4: 3, 5: 1} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %g ms, want %g", id, self[id], want)
		}
	}
	tot := totalSpans(spans)
	if math.Abs(tot.children["parent"]-10) > 1e-9 {
		t.Errorf("children of parent sum to %g ms, want 10 (4+3+3)", tot.children["parent"])
	}
}

func TestProcParsing(t *testing.T) {
	// comm contains a space and a closing parenthesis.
	stat := "4242 (dvfsd (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 59 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseStatCPUTicks(stat)
	if err != nil || ticks != 731+59 {
		t.Errorf("ticks = %d, %v; want 790", ticks, err)
	}
	if _, err := parseStatCPUTicks("4242 (dvfsd) S 1 2"); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	status := "Name:\tdvfsd\nVmPeak:\t  999999 kB\nVmHWM:\t   89344 kB\nVmRSS:\t   70000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 89344 {
		t.Errorf("VmHWM = %d, %v; want 89344", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error")
	}
	// The live files parse too.
	if _, err := procCPUMillis(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := procRSSMB(os.Getpid(), "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("own peak RSS = %g MB, %v", mb, err)
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseProm(`# HELP dvfsd_cache_hits_total Strategy cache hits.
# TYPE dvfsd_cache_hits_total counter
dvfsd_cache_hits_total 12
dvfsd_cache_misses_total 3
dvfsd_stage_seconds_sum{stage="model"} 0.5
dvfsd_stage_seconds_count{stage="model"} 2
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(`dvfsd_cache_hits_total 112
dvfsd_cache_misses_total 3
dvfsd_stage_seconds_sum{stage="model"} 2.5
dvfsd_stage_seconds_count{stage="model"} 6
dvfsd_stage_seconds_sum{stage="search"} 1.25
dvfsd_stage_seconds_bucket{stage="search",le="+Inf"} 4
`)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"dvfsd_cache_hits_total":                  100,
		"dvfsd_cache_misses_total":                0,
		`dvfsd_stage_seconds_sum{stage="model"}`:  2,
		`dvfsd_stage_seconds_sum{stage="search"}`: 1.25, // absent before: counts from zero
	} {
		if got := after.delta(before, series); math.Abs(got-want) > 1e-12 {
			t.Errorf("delta %s = %g, want %g", series, got, want)
		}
	}
	if _, err := parseProm("dvfsd_queue_depth notanumber\n"); err == nil {
		t.Error("a non-numeric value must be an error")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclaredNames holds the metric and workload tables to the
// contract's name rules and to BENCHMARK.json.
func TestDeclaredNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("table sizes out of contract: %d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark's window is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the benchmark emits %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the benchmark's is %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

// TestContractLine checks the driver-facing line over a result built
// from the declared tables: exactly the four keys, every name legal.
func TestContractLine(t *testing.T) {
	res := &workloadResult{Workload: "hot_named", Attempted: 10, Failed: 1}
	for i, m := range endToEnd {
		res.Metrics = append(res.Metrics, metric{Name: m.Name, Value: float64(i) + 0.5, Unit: m.Unit})
	}
	var buf bytes.Buffer
	if err := printContractLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("want exactly correct/attempted/failed/metrics, got %s", buf.String())
	}
	if string(line["correct"]) != "false" {
		t.Errorf("a result with a failed request must not be correct: %s", line["correct"])
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("line carries %d metrics, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if !nameRE.MatchString(name) || m.Value == nil || !unitRE.MatchString(m.Unit) {
			t.Errorf("emitted metric %q: %+v", name, m)
		}
	}
	res.Metrics[0].Value = math.NaN()
	if err := printContractLine(&buf, res); err == nil {
		t.Error("a NaN metric must be refused, not printed")
	}
}

// requestHash digests the first 200 requests of a workload (100 steps
// of each client) and returns the hot and cold key sets.
func requestHash(w *workloadDef, seed int64) (digest string, hot, cold map[string]int) {
	h := sha256.New()
	hot, cold = make(map[string]int), make(map[string]int)
	base := seedBase(seed)
	for k := 0; k < 100; k++ {
		for c := 0; c < clients; c++ {
			r := w.gen(base, c, k)
			fmt.Fprintf(h, "%s|%v|%+v\n", r.Trace, r.Hot, r.Spec)
			if r.Hot {
				hot[r.key()]++
			} else {
				cold[r.key()]++
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), hot, cold
}

func TestRequestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, hot, cold := requestHash(w, 7)
		again, _, _ := requestHash(w, 7)
		other, _, _ := requestHash(w, 8)
		zero, _, _ := requestHash(w, 0)
		one, _, _ := requestHash(w, 1)
		if a != again {
			t.Errorf("%s: the same seed generated different requests", w.name)
		}
		if a == other || zero == one {
			t.Errorf("%s: different seeds generated the same requests", w.name)
		}
		for key, n := range cold {
			if n != 1 {
				t.Errorf("%s: cold key %s issued %d times", w.name, key, n)
			}
		}
		if len(hot) > 12 {
			t.Errorf("%s: %d hot keys, the cache-resident set must stay at 12 or fewer", w.name, len(hot))
		}
		if got := len(w.hotKeys(seedBase(7))); got != len(hot) {
			t.Errorf("%s: hotKeys primes %d keys, the sequence uses %d", w.name, got, len(hot))
		}
		for key := range hot {
			if cold[key] != 0 {
				t.Errorf("%s: key %s is both hot and cold", w.name, key)
			}
		}
		switch w.name {
		case "hot_named":
			if len(hot) != 12 || len(cold) != 0 {
				t.Errorf("hot_named: %d hot and %d cold keys, want 12 and 0", len(hot), len(cold))
			}
		case "cold_search", "cold_build":
			if len(hot) != 0 || len(cold) != 200 {
				t.Errorf("%s: %d hot and %d cold keys, want 0 and 200", w.name, len(hot), len(cold))
			}
		case "inline_durable":
			if len(hot) != 3 || len(cold) != 40 {
				t.Errorf("inline_durable: %d hot and %d cold keys, want 3 and 40", len(hot), len(cold))
			}
		}
	}
}

// TestCorruptedResponseIsAFailure serves the validator one genuine
// strategy and several damaged copies. It fits vit's models once
// (about a second): the byte-for-byte check is the point.
func TestCorruptedResponseIsAFailure(t *testing.T) {
	w := workloadByName("cold_build")
	in, err := prepare(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := newValidator(w, in)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := w.gen(seedBase(1), 0, 0)
	genuine, err := v.regenerate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	status := func(strategy []byte, edit func(*traceio.StrategyResponse)) *traceio.JobStatus {
		res := &traceio.StrategyResponse{
			Workload: "Vit_base", Fingerprint: in.traces[req.Trace].fingerprint,
			Strategy: json.RawMessage(strategy), Search: req.Spec,
		}
		if edit != nil {
			edit(res)
		}
		return &traceio.JobStatus{ID: "j1", State: traceio.JobDone, Result: res}
	}
	// One frequency nudged: still a well-formed strategy.
	var doc map[string]any
	if err := json.Unmarshal(genuine, &doc); err != nil {
		t.Fatal(err)
	}
	point := doc["points"].([]any)[0].(map[string]any)
	point["freq_mhz"] = point["freq_mhz"].(float64) - 100
	nudged, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	failedJob := status(genuine, nil)
	failedJob.State, failedJob.Error = traceio.JobFailed, "boom"
	samples := []sample{
		{k: 0, req: req, status: status(genuine, nil)},
		{k: 0, req: req, status: status(nudged, nil)},
		{k: 0, req: req, status: status([]byte(`{"baseline_mhz":0}`), nil)},
		{k: 0, req: req, status: status(genuine, func(r *traceio.StrategyResponse) { r.Fingerprint = "0000" })},
		{k: 0, req: req, status: status(genuine, func(r *traceio.StrategyResponse) { r.Search.Seed++ })},
		{k: 0, req: req, status: failedJob},
		{k: 0, req: req, err: fmt.Errorf("connection reset")},
	}
	vd, err := v.validate(ctx, samples)
	if err != nil {
		t.Fatal(err)
	}
	if vd.bad[0] {
		t.Errorf("the genuine response was rejected: %v", vd.reasons)
	}
	for i := 1; i < len(samples); i++ {
		if !vd.bad[i] {
			t.Errorf("damaged response %d passed validation", i)
		}
	}
	if got, want := vd.failed(), len(samples)-1; got != want {
		t.Errorf("failed = %d, want %d", got, want)
	}
}
