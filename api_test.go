package npudvfs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
