package npudvfs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// The facade must expose a working end-to-end path without touching
// internal packages directly.
func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end facade test in -short mode")
	}
	l := NewLab()
	m, err := WorkloadByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := l.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStrategyConfig()
	cfg.GA.PopSize = 40
	cfg.GA.Generations = 80
	strat, err := GenerateStrategy(context.Background(), ms.Input(l.Chip), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.MeasureFixed(m, 1800)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.MeasureStrategy(m, strat, DefaultExecutorOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCoreW >= base.MeanCoreW {
		t.Errorf("facade pipeline produced no AICore saving: %g vs %g W", res.MeanCoreW, base.MeanCoreW)
	}
	if loss := res.TimeMicros/base.TimeMicros - 1; loss > 0.05 {
		t.Errorf("facade pipeline loss %.3f too large", loss)
	}
}

// Both facade generators stop at the search's first generation boundary
// under a cancelled context and report it.
func TestFacadeGenerateHonoursCancellation(t *testing.T) {
	l := NewLab()
	m, err := WorkloadByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := l.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateStrategy(ctx, ms.Input(l.Chip), DefaultStrategyConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateStrategy: want error wrapping context.Canceled, got %v", err)
	}
	dual := DualInput{Chip: l.Chip, Profile: ms.Baseline, Power: ms.Power}
	if _, err := GenerateDualStrategy(ctx, dual, DefaultDualConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("GenerateDualStrategy: want error wrapping context.Canceled, got %v", err)
	}
}

func TestFacadeConstructors(t *testing.T) {
	chip := DefaultChip()
	if err := chip.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := AscendVFCurve().Max(); got != 1800 {
		t.Errorf("curve max = %g, want 1800", got)
	}
	if len(WorkloadNames()) < 9 {
		t.Errorf("registry has %d workloads, want >= 9", len(WorkloadNames()))
	}
	if _, err := WorkloadByName("no-such-model"); err == nil {
		t.Error("unknown workload: want error")
	}
	if NewProfiler(chip, 1) == nil {
		t.Error("nil profiler")
	}
	m, err := FitPerfModel([]MHz{1000, 1800}, []Micros{100, 90})
	if err != nil {
		t.Fatal(err)
	}
	if diff := m.Micros(1000) - 100; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("2-point fit not exact at fit point: %g", m.Micros(1000))
	}
	fixed := FixedStrategy(1500)
	if fixed.FreqAt(123) != 1500 {
		t.Error("fixed strategy not constant")
	}
	g := DefaultGroundTruth(chip)
	if NewExecutor(chip, g) == nil {
		t.Error("nil executor")
	}
	th := DefaultThermal()
	if lab := NewLabFor(chip, g, th, 3); lab == nil || lab.Chip != chip {
		t.Error("NewLabFor did not wire the chip")
	}
}

// A library user may edit the trace WorkloadByName returns before
// optimizing it; the registry's shared model, which every internal
// caller and the next WorkloadByName read, must not see the edit.
func TestWorkloadByNameReturnsOwnedCopy(t *testing.T) {
	m, err := WorkloadByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	want := m.Trace[0]
	m.Name = "edited"
	m.Trace[0].Name = "edited"
	m.Trace[0].LoadBytes *= 2
	m.Trace = append(m.Trace[:1], m.Trace[2:]...)

	again, err := WorkloadByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := workload.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	fresh := workload.ResNet50()
	for label, got := range map[string]*Workload{"second WorkloadByName": again, "workload.ByName": shared} {
		if got.Name != fresh.Name || got.Trace[0] != want || !reflect.DeepEqual(got.Trace, fresh.Trace) {
			t.Errorf("%s sees the caller's edits", label)
		}
	}
}

// A generated strategy, a registry workload and a fitted model bundle
// survive the facade's save/load round trip unchanged, and the facade
// fingerprints a registry trace to the digest pinned for it.
func TestFacadeFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l := NewLab()
	m, err := WorkloadByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}

	wpath := filepath.Join(dir, "trace.json")
	if err := SaveWorkload(wpath, m); err != nil {
		t.Fatal(err)
	}
	wback, err := LoadWorkload(wpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wback, m) {
		t.Error("workload changed across SaveWorkload/LoadWorkload")
	}

	ms, err := l.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := ms.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, "models.json")
	if err := SaveModels(mpath, bundle); err != nil {
		t.Fatal(err)
	}
	mback, err := LoadModels(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mback, bundle) {
		t.Error("model bundle changed across SaveModels/LoadModels")
	}

	cfg := DefaultStrategyConfig()
	cfg.GA.PopSize = 8
	cfg.GA.Generations = 10
	strat, err := GenerateStrategy(context.Background(), ms.Input(l.Chip), cfg)
	if err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, "strategy.json")
	if err := SaveStrategy(spath, strat); err != nil {
		t.Fatal(err)
	}
	sback, err := LoadStrategy(spath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sback, strat) {
		t.Errorf("strategy changed across SaveStrategy/LoadStrategy:\n got %+v\nwant %+v", sback, strat)
	}

	raw, err := os.ReadFile(filepath.Join("internal", "traceio", "testdata", "registry_fingerprints.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	if got := FingerprintTrace(m.Trace); got != pinned["resnet50"] {
		t.Errorf("FingerprintTrace(resnet50) = %s, pinned %s", got, pinned["resnet50"])
	}
}

// The served path and the library path agree: the strategy dvfsd
// serves for resnet50 is the one GenerateStrategy computes in-process
// on the same Lab's models, under the spec the daemon searched with.
func TestFacadeServedStrategyMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("model build and two searches in -short mode")
	}
	ctx := context.Background()
	lab := NewLab()
	srv, err := NewServer(ServerConfig{Workers: 1, Lab: lab})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	c := NewClient(ts.URL)
	st, err := c.Submit(ctx, &StrategyRequest{Workload: "resnet50", Search: SearchSpec{Pop: 16, Gens: 8, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != traceio.JobDone {
		t.Fatalf("job %s: %s", done.State, done.Error)
	}
	served, err := traceio.ReadStrategy(bytes.NewReader(done.Result.Strategy))
	if err != nil {
		t.Fatal(err)
	}

	m, err := WorkloadByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	spec := done.Result.Search
	cfg := DefaultStrategyConfig()
	cfg.PerfLossTarget = spec.TargetLoss
	cfg.FAIMicros = spec.FAIMillis.Micros()
	cfg.GA.PopSize, cfg.GA.Generations, cfg.GA.Seed = spec.Pop, spec.Gens, spec.Seed
	want, err := GenerateStrategy(ctx, ms.Input(lab.Chip), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, want) {
		t.Errorf("served strategy differs from the library's:\nserved  %+v\nlibrary %+v", served, want)
	}
}

// The deployment helpers around a strategy: a die starts at ambient,
// the adaptive guard raises a strategy one grid step when an iteration
// overshoots the loss target (leaving the caller's copy alone), and the
// uncore calibration finds clock-proportional idle power on a rig built
// from facade parts only.
func TestFacadeDeploymentHelpers(t *testing.T) {
	chip := DefaultChip()
	th := DefaultThermal()
	if got := NewThermalState(th).TempC(); got != th.AmbientC {
		t.Errorf("new thermal state at %g C, want ambient %g C", got, th.AmbientC)
	}

	strat := FixedStrategy(1500)
	ctl, err := NewAdaptiveController(chip.Curve, strat, 1000, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Observe(1100) // 10 % loss against a 2 % target
	if got := ctl.Strategy().FreqAt(0); ctl.Adjustments() != 1 || got != 1600 {
		t.Errorf("after an overshoot: %d adjustments, %g MHz; want 1 and 1600 MHz", ctl.Adjustments(), got)
	}
	if strat.FreqAt(0) != 1500 {
		t.Error("the controller edited the caller's strategy")
	}

	rig := &PowerRig{Chip: chip, Ground: DefaultGroundTruth(chip), Sensor: NewProfiler(chip, 99).Sensor, Thermal: th}
	dyn, err := CalibrateUncoreDyn(rig, 0.8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if dyn <= 0 {
		t.Errorf("uncore dynamic power %g W, want positive", dyn)
	}
}
