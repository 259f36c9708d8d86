package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"npudvfs/internal/server/client"
	"npudvfs/internal/stats"
	"npudvfs/internal/traceio"
)

// probesPerWorkload is how many probe strategies a run executes on the
// simulator.
const probesPerWorkload = 3

// windowFloor is the number of requests a window offers before it may
// end: the 100 the p90 needs plus a margin for failed ones. Every
// workload offers 130–1,800 in 20 s on the reference host, so the
// floor only acts when the host is having a slow quarter of an hour.
const windowFloor = 120

// setups is how many times an end-to-end run sets the daemon up; the
// median is reported, the last one serves the window.
const setups = 3

// workloadResult is one workload's outcome in one phase.
type workloadResult struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Traced        bool     `json:"traced"`
	WindowSeconds float64  `json:"window_s"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Regenerated   int      `json:"regenerated"`
	Failures      []string `json:"failures,omitempty"`
	Metrics       []metric `json:"metrics"`
	SpansFile     string   `json:"spans_file,omitempty"`
}

func (r *workloadResult) correct() bool { return r.Failed == 0 }

func (r *workloadResult) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// windowOut is what the measured window produced.
type windowOut struct {
	samples []sample
	bad     []bool
	// layer holds the per-layer values only a live window can give.
	layer map[string]float64
}

// latencies returns the valid samples' latencies in ms.
func (w *windowOut) latencies() []float64 {
	var out []float64
	for i := range w.samples {
		if !w.bad[i] {
			out = append(out, w.samples[i].latencyMillis)
		}
	}
	return out
}

// bench is the state shared by every workload run of one invocation.
type bench struct {
	outDir string // bench/out
	bin    string // built dvfsd
}

// setUp starts a daemon for the workload in dir, primes every hot key
// and runs the warm-up steps [0, w.warm) on both clients. It returns
// the daemon with its caches filled and lazy initialisation done.
func (b *bench) setUp(ctx context.Context, w *workloadDef, in *inputs, base int64, dir string) (*daemon, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, b.bin, dir, w, in.bundlePaths(w))
	if err != nil {
		return nil, err
	}
	cls := newLoadClients(d.base, false)
	defer closeLoadClients(cls)
	warm := fetchAll(ctx, cls, w, in, w.hotKeys(base))
	warm = append(warm, drive(ctx, cls, w, in, base, 0, func(k int) bool { return k < w.warm })...)
	for i := range warm {
		s := &warm[i]
		if s.err != nil || s.status.State != traceio.JobDone {
			d.stop()
			return nil, fmt.Errorf("warm-up request for %s failed: %v %+v", s.req.Trace, s.err, s.status)
		}
	}
	return d, nil
}

// rssSampler reads the child's resident set every 50 ms on its own
// goroutine. The peak (VmHWM) is a coincidence of two GPT-3 requests
// and a late GC cycle and varies ±30 % run to run; the mean over a few
// hundred samples repeats within a few percent.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.done <- mb
				return
			case <-tick.C:
				if v, err := procRSSMB(pid, "VmRSS"); err == nil {
					mb = append(mb, v)
				}
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples in MB.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	return <-s.done
}

// scrape reads and parses the daemon's /metrics.
func scrape(ctx context.Context, base string) (promSample, error) {
	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseProm(text)
}

// runWorkload runs one phase of one workload: the end-to-end phase
// (tracing off: three set-ups, window, validation, probes) or the
// traced phase (one set-up, window with the client round-trip hook,
// validation, probes, replay).
func (b *bench) runWorkload(ctx context.Context, w *workloadDef, seed int64, window time.Duration, traced bool) (*workloadResult, error) {
	// A wedged daemon must fail the run, not hang it: everything but
	// the window takes well under two minutes.
	ctx, cancel := context.WithTimeout(ctx, window+2*time.Minute)
	defer cancel()
	dir, err := os.MkdirTemp(b.outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := seedBase(seed)

	in, err := prepare(w, dir)
	if err != nil {
		return nil, err
	}
	n := setups
	if traced {
		n = 1
	}
	var d *daemon
	var setupSeconds []float64
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = b.setUp(ctx, w, in, base, filepath.Join(dir, fmt.Sprintf("daemon%d", i))); err != nil {
			return nil, err
		}
		setupSeconds = append(setupSeconds, time.Since(start).Seconds())
	}
	defer d.stop()

	// The window.
	cls := newLoadClients(d.base, traced)
	defer closeLoadClients(cls)
	before, err := scrape(ctx, d.base)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := procCPUMillis(d.pid())
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(d.pid())
	start := time.Now()
	deadline, hardDeadline := start.Add(window), start.Add(2*window)
	var issued atomic.Int64
	samples := drive(ctx, cls, w, in, base, w.warm, func(int) bool {
		// The window is -seconds long. On a host slow enough that it
		// has not yet offered windowFloor requests, it runs on until it
		// has (at most twice as long) instead of failing the p90 rule:
		// throughput is per elapsed second either way.
		now := time.Now()
		if now.Before(deadline) || (issued.Load() < windowFloor && now.Before(hardDeadline)) {
			issued.Add(1)
			return true
		}
		return false
	})
	elapsed := time.Since(start).Seconds()
	rssMB := rss.stop()
	cpuAfter, err := procCPUMillis(d.pid())
	if err != nil {
		return nil, err
	}
	peakRSS, err := procRSSMB(d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, d.base)
	if err != nil {
		return nil, err
	}

	// Probes: the production search under this seed, as the daemon
	// serves it — three per workload, spread over its traces (one
	// each on the rotation, three seeds on a single trace), so the
	// quality metrics average the same number of searches everywhere.
	var probeReqs []request
	for _, t := range w.traces {
		for i := 0; i < max(1, probesPerWorkload/len(w.traces)); i++ {
			probeReqs = append(probeReqs, probe(base+int64(i), t))
		}
	}
	probes := fetchAll(ctx, cls, w, in, probeReqs)
	d.stop()

	// Validation, off the timed path and with the daemon gone.
	v := newValidator(w, in)
	all := append(append([]sample(nil), samples...), probes...)
	vd, err := v.validate(ctx, all)
	if err != nil {
		return nil, err
	}
	var okProbes []sample
	var okIndex []int // position of each okProbes entry in all
	for i := range probes {
		if !vd.bad[len(samples)+i] {
			okProbes = append(okProbes, probes[i])
			okIndex = append(okIndex, len(samples)+i)
		}
	}
	if len(okProbes) == 0 {
		return nil, fmt.Errorf("%s: no probe produced a valid strategy: %v", w.name, vd.reasons)
	}
	outcomes, err := v.simulate(ctx, okProbes)
	if err != nil {
		return nil, err
	}
	var savings, lossesPct []float64
	for i, o := range outcomes {
		savings = append(savings, o.socSavingPct)
		lossesPct = append(lossesPct, o.perfLossPct)
		if limit := 100*probeLoss + probeSlackPct; o.perfLossPct > limit {
			vd.fail(okIndex[i], "probe %s: measured loss %.2f%% above %.2f%%", o.trace, o.perfLossPct, limit)
		}
	}

	win := &windowOut{samples: samples, bad: vd.bad[:len(samples)], layer: make(map[string]float64)}
	lat := sortedCopy(win.latencies())
	res := &workloadResult{
		Workload: w.name, Seed: seed, Traced: traced, WindowSeconds: elapsed,
		Attempted: len(all), Failed: vd.failed(), Regenerated: vd.regenerated, Failures: vd.reasons,
	}
	p90, err := tail(lat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w; the run fails rather than report a thinner tail", w.name, err)
	}

	if !traced {
		res.Metrics = []metric{
			{"setup_s", in.prepSeconds + median(setupSeconds), "s", len(setupSeconds)},
			{"strategies_per_s", float64(len(lat)) / elapsed, "1/s", len(lat)},
			{"latency_p50_ms", percentile(lat, 50), "ms", len(lat)},
			{"latency_p90_ms", p90, "ms", len(lat)},
			{"valid_share", 1 - float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted},
			{"server_cpu_ms_per_strategy", (cpuAfter - cpuBefore) / float64(len(lat)), "ms", len(lat)},
			{"server_rss_mb", stats.Mean(rssMB), "MB", len(rssMB)},
			{"soc_power_saving_pct", stats.Mean(savings), "%", len(savings)},
			{"perf_loss_pct", stats.Mean(lossesPct), "%", len(lossesPct)},
		}
		return res, nil
	}

	// The traced phase: window-derived layer values, then the replay.
	windowLayer(win, cls, before, after)
	win.layer["server.peak_rss_mb"] = peakRSS
	rp, err := runReplay(ctx, w, in, base, dir)
	if err != nil {
		return nil, err
	}
	first := &okProbes[0]
	strat, err := traceio.ReadStrategy(bytes.NewReader(first.status.Result.Strategy))
	if err != nil {
		return nil, err
	}
	execMillis, execIters, err := measureExecutor(in.lab, in.traces[first.req.Trace].model, strat)
	if err != nil {
		return nil, err
	}
	values := layerMetrics(win, rp, in.fitMillis, execMillis, execIters)
	for _, def := range perLayer {
		res.Metrics = append(res.Metrics, metric{Name: def.Name, Value: values[def.Name], Unit: def.Unit})
	}
	res.SpansFile = filepath.Join(b.outDir, w.name+".spans.json")
	if err := writeSpans(res.SpansFile, rp.spans); err != nil {
		return nil, err
	}
	if c := values["trace.coverage"]; c < 0.85 || c > 1.15 {
		return nil, fmt.Errorf("%s: trace.coverage %.3f outside [0.85, 1.15]: the mirror in replay.go no longer follows the serving path", w.name, c)
	}
	return res, nil
}

// windowLayer fills the per-layer values that come from the live
// window: per-trace client medians, client round trips, the job's own
// stage timings and the daemon's /metrics deltas.
func windowLayer(win *windowOut, cls []*loadClient, before, after promSample) {
	byTrace := make(map[string][]float64)
	var queue []float64
	rejects := 0
	for i := range win.samples {
		s := &win.samples[i]
		if s.rejected() {
			rejects++
		}
		if win.bad[i] {
			continue
		}
		byTrace[s.req.Trace] = append(byTrace[s.req.Trace], s.latencyMillis)
		queue = append(queue, float64(s.status.QueueMillis))
	}
	for trace, lat := range byTrace {
		win.layer["client.p50_ms."+trace] = median(lat)
	}
	var submits, polls []float64
	for _, lc := range cls {
		submits = append(submits, lc.trips.submitMillis...)
		polls = append(polls, lc.trips.pollMillis...)
	}
	win.layer["client.submit_rtt_ms"] = stats.Mean(submits)
	win.layer["client.poll_rtt_ms"] = stats.Mean(polls)
	if n := len(win.samples); n > 0 {
		win.layer["client.polls_per_request"] = float64(len(polls)) / float64(n)
	}
	win.layer["server.queue_ms"] = stats.Mean(queue)
	win.layer["server.rejects_503"] = float64(rejects)
	for _, stage := range []string{"model", "search"} {
		count := after.delta(before, fmt.Sprintf("dvfsd_stage_seconds_count{stage=%q}", stage))
		if count > 0 {
			sum := after.delta(before, fmt.Sprintf("dvfsd_stage_seconds_sum{stage=%q}", stage))
			win.layer["server.stage_"+stage+"_ms"] = 1000 * sum / count
		}
	}
	hits := after.delta(before, "dvfsd_cache_hits_total")
	misses := after.delta(before, "dvfsd_cache_misses_total")
	if hits+misses > 0 {
		win.layer["server.cache_hit_share"] = hits / (hits + misses)
	}
}
