package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"npudvfs/internal/experiments"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// traceInput is everything the run needs about one registry trace.
type traceInput struct {
	name        string
	model       *workload.Model
	fingerprint string
	// bundlePath and bundle are set for workloads whose daemon loads
	// fitted models; bundle is read back from the file so the validator
	// regenerates from exactly what the daemon loaded.
	bundlePath string
	bundle     *traceio.ModelBundle
	// body is the trace in the WriteWorkload wire form, for inline
	// submission.
	body json.RawMessage
}

// inputs are a run's generated inputs: a pure function of the
// workload (the traces are synthesized by the registry; -seed enters
// through the request generator only).
type inputs struct {
	lab    *experiments.Lab
	traces map[string]*traceInput
	// prepSeconds is how long fitting and saving the bundles and
	// rendering the inline bodies took; it is part of setup_s.
	prepSeconds float64
	// fitMillis is the bundle-fitting share of it.
	fitMillis float64
}

// prepare synthesizes the workload's traces, fits and saves a model
// bundle per trace when the daemon loads them, and renders the inline
// bodies. Files go to dir.
func prepare(w *workloadDef, dir string) (*inputs, error) {
	start := time.Now()
	in := &inputs{lab: experiments.NewLab(), traces: make(map[string]*traceInput)}
	for _, name := range w.traces {
		m, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		t := &traceInput{name: name, model: m}
		in.traces[name] = t
		if w.bundles {
			fit := time.Now()
			ms, err := in.lab.BuildModels(m, true)
			if err != nil {
				return nil, fmt.Errorf("fitting %s: %w", name, err)
			}
			b, err := ms.Bundle()
			if err != nil {
				return nil, err
			}
			t.bundlePath = filepath.Join(dir, name+".models.json")
			if err := traceio.SaveModels(t.bundlePath, b); err != nil {
				return nil, err
			}
			in.fitMillis += millisSince(fit)
			if t.bundle, err = traceio.LoadModels(t.bundlePath); err != nil {
				return nil, err
			}
		}
		if w.inline {
			var buf bytes.Buffer
			if err := traceio.WriteWorkload(&buf, m); err != nil {
				return nil, err
			}
			t.body = buf.Bytes()
		}
	}
	in.prepSeconds = time.Since(start).Seconds()
	// Fingerprints are the validator's reference, not an input the
	// daemon receives: computed outside the timed preparation.
	for _, t := range in.traces {
		t.fingerprint = traceio.Fingerprint(t.model.Trace)
	}
	return in, nil
}

// bundlePaths lists the saved bundles in trace order.
func (in *inputs) bundlePaths(w *workloadDef) []string {
	var out []string
	for _, name := range w.traces {
		if p := in.traces[name].bundlePath; p != "" {
			out = append(out, p)
		}
	}
	return out
}

// wire renders a generated request in the API's form.
func (in *inputs) wire(w *workloadDef, r request) *traceio.StrategyRequest {
	if w.inline {
		return &traceio.StrategyRequest{Trace: in.traces[r.Trace].body, Search: r.Spec}
	}
	return &traceio.StrategyRequest{Workload: r.Trace, Search: r.Spec}
}

func millisSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
