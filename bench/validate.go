package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/experiments"
	"npudvfs/internal/pool"
	"npudvfs/internal/traceio"
)

// regenEvery is the stride at which cold requests are regenerated in
// process; every hot key and every probe always is.
const regenEvery = 10

// probeSlackPct is how far above its target_loss a probe strategy's
// measured loss may land before the probe counts as a failed request.
const probeSlackPct = 0.5

// validator checks served strategies against the batch path: the same
// Lab, models and core.GenerateContext call cmd/dvfs-run makes.
type validator struct {
	w  *workloadDef
	in *inputs

	mu     sync.Mutex
	models map[string]*builtModels
}

type builtModels struct {
	once sync.Once
	ms   *experiments.Models
	err  error
}

func newValidator(w *workloadDef, in *inputs) *validator {
	return &validator{w: w, in: in, models: make(map[string]*builtModels)}
}

// check is the per-response validation: the job is done, the strategy
// parses, and the response echoes the canonical spec and the trace's
// fingerprint.
func (v *validator) check(r request, st *traceio.JobStatus) error {
	switch {
	case st == nil:
		return fmt.Errorf("no terminal status")
	case st.State != traceio.JobDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Result == nil:
		return fmt.Errorf("job %s is done without a result", st.ID)
	}
	res := st.Result
	if _, err := traceio.ReadStrategy(bytes.NewReader(res.Strategy)); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	if res.Search.ConfigHash() != r.Spec.ConfigHash() || res.Search.TimeoutMillis != r.Spec.TimeoutMillis {
		return fmt.Errorf("job %s echoes search %+v, submitted %+v", st.ID, res.Search, r.Spec)
	}
	if want := v.in.traces[r.Trace].fingerprint; res.Fingerprint != want {
		return fmt.Errorf("job %s echoes fingerprint %s, trace %s has %s", st.ID, res.Fingerprint, r.Trace, want)
	}
	return nil
}

// modelsFor returns the trace's models as the daemon obtains them:
// from the loaded bundle, or fitted from scratch. Fitting depends on
// the trace and the Lab only, so one fit serves every regeneration.
func (v *validator) modelsFor(trace string) (*experiments.Models, error) {
	v.mu.Lock()
	b := v.models[trace]
	if b == nil {
		b = &builtModels{}
		v.models[trace] = b
	}
	v.mu.Unlock()
	b.once.Do(func() {
		t := v.in.traces[trace]
		if t.bundle != nil {
			b.ms, b.err = v.in.lab.ModelsFromBundle(t.model, t.bundle)
		} else {
			b.ms, b.err = v.in.lab.BuildModels(t.model, true)
		}
	})
	return b.ms, b.err
}

// searchConfig maps a canonical spec onto the core configuration, as
// server.generate and cmd/dvfs-run do.
func searchConfig(spec traceio.SearchSpec) core.Config {
	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = spec.TargetLoss
	cfg.FAIMicros = spec.FAIMillis.Micros()
	cfg.GA.PopSize = spec.Pop
	cfg.GA.Generations = spec.Gens
	cfg.GA.Seed = spec.Seed
	return cfg
}

// regenerate produces the request's strategy by the batch path, in the
// compact form the determinism contract is stated over.
func (v *validator) regenerate(ctx context.Context, r request) ([]byte, error) {
	ms, err := v.modelsFor(r.Trace)
	if err != nil {
		return nil, err
	}
	strat, _, _, err := core.GenerateContext(ctx, ms.Input(v.in.lab.Chip), searchConfig(r.Spec))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := traceio.WriteStrategy(&buf, strat); err != nil {
		return nil, err
	}
	return compact(buf.Bytes())
}

func compact(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// verdict is the outcome of validating a set of samples.
type verdict struct {
	// bad marks the failed samples, index-aligned with the input.
	bad []bool
	// reasons holds the first few failures, for the report.
	reasons []string
	// regenerated counts strategies rebuilt in process and compared.
	regenerated int
}

func (vd *verdict) fail(i int, format string, args ...any) {
	if !vd.bad[i] {
		vd.bad[i] = true
		if len(vd.reasons) < 5 {
			vd.reasons = append(vd.reasons, fmt.Sprintf(format, args...))
		}
	}
}

func (vd *verdict) failed() int {
	n := 0
	for _, b := range vd.bad {
		if b {
			n++
		}
	}
	return n
}

// validate checks every sample, requires all responses for one hot key
// to be identical, and regenerates every hot key, every probe (k < 0)
// and every regenEvery-th cold request, which must match the served
// strategy byte for byte. The returned error means validation itself
// could not run; failed samples are in the verdict.
func (v *validator) validate(ctx context.Context, samples []sample) (*verdict, error) {
	vd := &verdict{bad: make([]bool, len(samples))}
	firstOf := make(map[string]int) // hot key → first valid sample
	var regen []int
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			vd.fail(i, "%s c%d k%d: %v", s.req.Trace, s.client, s.k, s.err)
			continue
		}
		if err := v.check(s.req, s.status); err != nil {
			vd.fail(i, "%s c%d k%d: %v", s.req.Trace, s.client, s.k, err)
			continue
		}
		if !s.req.Hot {
			if s.k < 0 || s.k%regenEvery == 0 {
				regen = append(regen, i)
			}
			continue
		}
		first, seen := firstOf[s.req.key()]
		if !seen {
			firstOf[s.req.key()] = i
			regen = append(regen, i)
		} else if !bytes.Equal(s.status.Result.Strategy, samples[first].status.Result.Strategy) {
			vd.fail(i, "%s c%d k%d: strategy differs from an earlier response for the same key", s.req.Trace, s.client, s.k)
		}
	}

	mismatch := make([]string, len(regen))
	err := pool.Each(ctx, 0, len(regen), clients, func(j int, _ *rand.Rand) error {
		s := &samples[regen[j]]
		want, err := v.regenerate(ctx, s.req)
		if err != nil {
			return fmt.Errorf("regenerating %s %+v: %w", s.req.Trace, s.req.Spec, err)
		}
		got, err := compact(s.status.Result.Strategy)
		if err != nil || !bytes.Equal(got, want) {
			mismatch[j] = fmt.Sprintf("%s c%d k%d: served strategy differs from the batch path's", s.req.Trace, s.client, s.k)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, i := range regen {
		if mismatch[j] == "" {
			continue
		}
		vd.fail(i, "%s", mismatch[j])
		// A wrong hot strategy is wrong for every request it answered.
		if key := samples[i].req.key(); samples[i].req.Hot {
			for o := range samples {
				if samples[o].req.Hot && samples[o].req.key() == key {
					vd.fail(o, "%s", mismatch[j])
				}
			}
		}
	}
	vd.regenerated = len(regen)
	return vd, nil
}

// probeOutcome is one probe strategy executed on the simulator against
// the fixed-maximum-frequency baseline.
type probeOutcome struct {
	trace        string
	socSavingPct float64
	perfLossPct  float64
	// simMillis is how long the strategy's RunStable took.
	simMillis float64
}

// simulate executes each probe's served strategy with
// Lab.MeasureStrategy and the baseline with Lab.MeasureFixed.
func (v *validator) simulate(ctx context.Context, probes []sample) ([]probeOutcome, error) {
	out := make([]probeOutcome, len(probes))
	err := pool.Each(ctx, 0, len(probes), clients, func(i int, _ *rand.Rand) (err error) {
		out[i], err = v.simulateOne(&probes[i])
		return err
	})
	return out, err
}

func (v *validator) simulateOne(p *sample) (probeOutcome, error) {
	t := v.in.traces[p.req.Trace]
	strat, err := traceio.ReadStrategy(bytes.NewReader(p.status.Result.Strategy))
	if err != nil {
		return probeOutcome{}, err
	}
	lab := v.in.lab
	fixed, err := lab.MeasureFixed(t.model, lab.Chip.Curve.Max())
	if err != nil {
		return probeOutcome{}, fmt.Errorf("probe %s baseline: %w", t.name, err)
	}
	start := time.Now()
	dvfs, err := lab.MeasureStrategy(t.model, strat, executor.DefaultOptions())
	if err != nil {
		return probeOutcome{}, fmt.Errorf("probe %s strategy: %w", t.name, err)
	}
	return probeOutcome{
		trace:        t.name,
		socSavingPct: 100 * (1 - dvfs.MeanSoCW/fixed.MeanSoCW),
		perfLossPct:  100 * (dvfs.TimeMicros/fixed.TimeMicros - 1),
		simMillis:    millisSince(start),
	}, nil
}
