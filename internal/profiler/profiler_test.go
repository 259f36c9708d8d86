package profiler

import (
	"math"
	"runtime"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func smallTrace() []op.Spec {
	return []op.Spec{
		{
			Name: "MatMul", Shape: "a", Class: op.Compute, Scenario: op.PingPongIndep,
			Blocks: 4, LoadBytes: 1 << 18, StoreBytes: 1 << 16, CoreCycles: 60000,
			CorePipe: op.Cube, L2Hit: 0.7,
		},
		{Name: "AllReduce", Class: op.Communication, FixedTime: 150},
		{
			Name: "Gelu", Shape: "b", Class: op.Compute, Scenario: op.PingPongFreeIndep,
			Blocks: 6, LoadBytes: 2 << 18, StoreBytes: 2 << 18, CoreCycles: 500,
			CorePipe: op.Vector, L2Hit: 0.1,
		},
		{Name: "idle", Class: op.Idle, FixedTime: 40},
		{
			Name: "MatMul", Shape: "a", Class: op.Compute, Scenario: op.PingPongIndep,
			Blocks: 4, LoadBytes: 1 << 18, StoreBytes: 1 << 16, CoreCycles: 60000,
			CorePipe: op.Cube, L2Hit: 0.7,
		},
	}
}

func TestRunNoiselessMatchesChipTime(t *testing.T) {
	chip := npu.Default()
	p := NewNoiseless(chip)
	trace := smallTrace()
	prof, err := p.Run(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Len() != len(trace) || len(prof.DurMicros) != len(trace) || len(prof.Ratios) != len(trace) {
		t.Fatalf("got %d entries (%d durations, %d ratios), want %d", prof.Len(), len(prof.DurMicros), len(prof.Ratios), len(trace))
	}
	if &prof.Trace[0] != &trace[0] || prof.AICoreW != nil || prof.SoCW != nil || prof.TempC != nil {
		t.Fatal("a timing profile must share the caller's trace and carry no power columns")
	}
	total := 0.0
	for i := range trace {
		want := chip.Time(&trace[i], 1500)
		if got := prof.DurMicros[i]; got != want {
			t.Errorf("entry %d duration = %g, want %g", i, got, want)
		}
		if got, want := prof.Ratios[i], chip.Ratios(&trace[i], 1500); got != want {
			t.Errorf("entry %d ratios = %v, want %v", i, got, want)
		}
		total += want
	}
	if prof.TotalMicros != total {
		t.Errorf("TotalMicros = %g, want %g", prof.TotalMicros, total)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	p := NewNoiseless(npu.Default())
	// NaN and +Inf used to pass the fMHz <= 0 check and profile a
	// trace into NaN durations.
	for _, f := range []float64{0, -1400, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.Run(smallTrace(), f); err == nil {
			t.Errorf("Run at %g MHz: want error", f)
		}
		g := powersim.Default(p.Chip)
		if _, err := p.RunPower(smallTrace(), f, g, thermal.NewState(thermal.Default())); err == nil {
			t.Errorf("RunPower at %g MHz: want error", f)
		}
	}
	bad := []op.Spec{{Name: "", Class: op.Compute}}
	if _, err := p.Run(bad, 1500); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestNoiseIsSmallAndDeterministic(t *testing.T) {
	trace := smallTrace()
	a, err := New(npu.Default(), 99).Run(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(npu.Default(), 99).Run(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewNoiseless(npu.Default()).Run(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.DurMicros {
		if a.DurMicros[i] != b.DurMicros[i] {
			t.Fatalf("same-seed profilers diverged at record %d", i)
		}
		rel := math.Abs(a.DurMicros[i]-exact.DurMicros[i]) / exact.DurMicros[i]
		if rel > 0.1 {
			t.Errorf("record %d noise %g too large", i, rel)
		}
	}
}

func TestRunPowerPopulatesTelemetry(t *testing.T) {
	chip := npu.Default()
	p := NewNoiseless(chip)
	g := powersim.Default(chip)
	th := thermal.NewState(thermal.Default())
	prof, err := p.RunPower(smallTrace(), 1500, g, th)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Ratios != nil {
		t.Error("a power profile carries PMU ratios")
	}
	for i := range prof.Trace {
		core, soc, temp := prof.AICoreW[i], prof.SoCW[i], prof.TempC[i]
		if soc <= 0 || core <= 0 {
			t.Errorf("record %d: power not populated (%g, %g)", i, core, soc)
		}
		if soc <= core {
			t.Errorf("record %d: SoC power %g <= AICore %g", i, soc, core)
		}
		if temp < float64(thermal.Default().AmbientC) {
			t.Errorf("record %d: temperature %g below ambient", i, temp)
		}
	}
	if th.TempC() <= thermal.Default().AmbientC {
		t.Error("thermal state did not warm up")
	}
	if prof.MeanSoCW() <= prof.MeanAICoreW() {
		t.Error("mean SoC power should exceed mean AICore power")
	}
}

func TestRunPowerNeedsDependencies(t *testing.T) {
	p := NewNoiseless(npu.Default())
	if _, err := p.RunPower(smallTrace(), 1500, nil, nil); err == nil {
		t.Error("nil ground/thermal: want error")
	}
	if _, err := p.RunPower(nil, 1500, &powersim.Ground{}, thermal.NewState(thermal.Default())); err == nil {
		t.Error("ground without a chip: want error")
	}
}

func TestWarmupConverges(t *testing.T) {
	chip := npu.Default()
	p := NewNoiseless(chip)
	g := powersim.Default(chip)
	th := thermal.NewState(thermal.Default())
	// Build a long trace so each iteration meaningfully heats the die.
	var trace []op.Spec
	for i := 0; i < 50; i++ {
		trace = append(trace, smallTrace()...)
	}
	prof, err := p.WarmupIterations(trace, 1800, g, th, 5000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Fatal("nil profile")
	}
	// At stability, the temperature should be near the equilibrium
	// for the mean SoC power.
	teq := th.Equilibrium(units.Watt(prof.MeanSoCW()))
	if math.Abs(float64(th.TempC()-teq)) > 2 {
		t.Errorf("warmed temp %g not near equilibrium %g", th.TempC(), teq)
	}
}

func TestComputeMicrosExcludesFixed(t *testing.T) {
	p := NewNoiseless(npu.Default())
	prof, err := p.Run(smallTrace(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	fixed := 150.0 + 40.0
	if math.Abs(prof.ComputeMicros()-(prof.TotalMicros-fixed)) > 1e-9 {
		t.Errorf("ComputeMicros = %g, total-fixed = %g", prof.ComputeMicros(), prof.TotalMicros-fixed)
	}
}

func TestBuildSeriesAggregates(t *testing.T) {
	chip := npu.Default()
	p := NewNoiseless(chip)
	trace := smallTrace()
	var profiles []*Profile
	for _, f := range []float64{1000, 1400, 1800} {
		prof, err := p.Run(trace, f)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, prof)
	}
	series := BuildSeries(profiles)
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2 (MatMul/a, Gelu/b)", len(series))
	}
	mm := series["MatMul/a"]
	if mm == nil {
		t.Fatal("missing MatMul/a series")
	}
	if mm.Count != 2 {
		t.Errorf("MatMul/a count = %d, want 2", mm.Count)
	}
	if len(mm.FreqMHz) != 3 || len(mm.Micros) != 3 {
		t.Fatalf("series lengths = %d/%d, want 3/3", len(mm.FreqMHz), len(mm.Micros))
	}
	// Mean of two identical instances equals the single-op time.
	want := chip.Time(&trace[0], 1400)
	if math.Abs(mm.Micros[1]-want) > 1e-9 {
		t.Errorf("mean duration = %g, want %g", mm.Micros[1], want)
	}
}

// TestRunPowerAllocatesOnlyTheProfile holds one power-collecting run,
// as Lab.PowerProfiles makes it ~330 times per ViT build, to 2
// allocations, the Profile and the one block its four columns are cut
// from, and to 32 KiB: 32 bytes per entry of ViT's 721 (a copy of the
// trace per entry, as Records with spec pointers and ratios were, read
// 81,971 B). Each operator's timing and power terms, and the scratch
// for the noise and decay factors, live in the table the Profiler keeps
// across its calls (a table allocated per call would read 3; terms
// escaping per operator, >= 721). The profiler is seeded as
// Lab.PowerProfiles seeds its own, and the die is at thermal
// equilibrium for 1800 MHz, as after that method's warm-up.
func TestRunPowerAllocatesOnlyTheProfile(t *testing.T) {
	chip := npu.Default()
	g := powersim.Default(chip)
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	p := New(chip, 2225)
	th := thermal.NewState(thermal.Default())
	if _, err := p.WarmupIterations(m.Trace, 1800, g, th, 4000, 0.5); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(1, func() { _, err = p.RunPower(m.Trace, 1800, g, th) })
	if err != nil {
		t.Fatal(err)
	}
	if n > 2 {
		t.Errorf("RunPower on ViT made %v allocations, want <= 2 (the Profile and its columns)", n)
	}
	bytes := allocBytes(func() { _, err = p.RunPower(m.Trace, 1800, g, th) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RunPower on ViT: %d bytes", bytes)
	if bytes > 32<<10 {
		t.Errorf("RunPower on ViT allocated %d bytes, want <= 32 KiB (measured values only, no per-entry copy of the trace)", bytes)
	}
}

// allocBytes returns the heap bytes the second of two calls of f
// allocates, at GOMAXPROCS 1.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
