package powermodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func testRig(seed int64) *Rig {
	chip := npu.Default()
	return &Rig{
		Chip:    chip,
		Ground:  powersim.Default(chip),
		Sensor:  powersim.NewSensor(seed),
		Thermal: thermal.Default(),
	}
}

// testLoad returns a mid-size trace whose iterations are long enough
// to warm the chip in a reasonable number of iterations.
func testLoad() []op.Spec {
	var trace []op.Spec
	reps := workload.RepresentativeOps()
	for i := 0; i < 60; i++ {
		trace = append(trace, reps...)
	}
	return trace
}

var (
	calOnce sync.Once
	calOff  *Offline
	calErr  error
)

// calibrated returns a fresh rig plus a calibration shared across
// tests (calibration is the expensive step and is deterministic).
func calibrated(t *testing.T) (*Rig, *Offline) {
	t.Helper()
	calOnce.Do(func() {
		calOff, calErr = Calibrate(testRig(7), testLoad(), DefaultCalibrateOptions())
	})
	if calErr != nil {
		t.Fatal(calErr)
	}
	return testRig(7), calOff
}

func TestCalibrateRecoversAICoreIdleTerms(t *testing.T) {
	rig, off := calibrated(t)
	g := rig.Ground
	if rel := math.Abs(off.AICore.Beta-g.BetaCore) / g.BetaCore; rel > 0.25 {
		t.Errorf("BetaCore = %g, truth %g (rel %g)", off.AICore.Beta, g.BetaCore, rel)
	}
	if rel := math.Abs(off.AICore.Theta-g.ThetaCore) / g.ThetaCore; rel > 0.25 {
		t.Errorf("ThetaCore = %g, truth %g (rel %g)", off.AICore.Theta, g.ThetaCore, rel)
	}
	// The fitted idle curve must reproduce true idle power at interior
	// frequencies within a couple of percent.
	for _, f := range rig.Chip.Curve.Grid() {
		v := rig.Chip.Curve.Voltage(f)
		pred := off.AICore.Idle(f, v)
		truth := g.AICoreIdle(float64(f), 0)
		if e := stats.AbsRelError(float64(pred), truth); e > 0.05 {
			t.Errorf("idle prediction at %g MHz: error %g", f, e)
		}
	}
}

func TestCalibrateRecoversGamma(t *testing.T) {
	rig, off := calibrated(t)
	g := rig.Ground
	if rel := math.Abs(off.AICore.Gamma-g.GammaCore) / g.GammaCore; rel > 0.25 {
		t.Errorf("GammaCore = %g, truth %g", off.AICore.Gamma, g.GammaCore)
	}
	// SoC gamma folds in the uncore leakage slope: γ_soc·V ≈ γ_core·V + UncoreGamma.
	v := float64(rig.Chip.Curve.Voltage(rig.Chip.Curve.Max()))
	wantSlope := g.GammaCore*v + g.UncoreGamma
	if rel := math.Abs(off.SoC.Gamma*v-wantSlope) / wantSlope; rel > 0.25 {
		t.Errorf("SoC cooling slope = %g, want ~%g", off.SoC.Gamma*v, wantSlope)
	}
}

func TestCalibrateRecoversK(t *testing.T) {
	rig, off := calibrated(t)
	if rel := math.Abs(float64(off.K-rig.Thermal.KCPerWatt)) / float64(rig.Thermal.KCPerWatt); rel > 0.1 {
		t.Errorf("K = %g, truth %g", off.K, rig.Thermal.KCPerWatt)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(nil, testLoad(), DefaultCalibrateOptions()); err == nil {
		t.Error("nil rig: want error")
	}
	if _, err := Calibrate(testRig(1), nil, DefaultCalibrateOptions()); err == nil {
		t.Error("empty test load: want error")
	}
}

// buildProfiles collects power profiles of the trace at the build
// frequencies from a warmed chip, as the online phase prescribes.
func buildProfiles(t *testing.T, rig *Rig, trace []op.Spec, freqs []float64) []*profiler.Profile {
	t.Helper()
	p := profiler.Profiler{Chip: rig.Chip, Sensor: rig.Sensor, TimeNoiseFrac: 0.01}
	var out []*profiler.Profile
	for _, f := range freqs {
		th := thermal.NewState(rig.Thermal)
		if _, err := p.WarmupIterations(trace, f, rig.Ground, th, 4000, 0.5); err != nil {
			t.Fatal(err)
		}
		prof, err := p.RunPower(trace, f, rig.Ground, th)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, prof)
	}
	return out
}

func TestBuildAndPredictAcrossFrequencies(t *testing.T) {
	rig, off := calibrated(t)
	trace := testLoad()
	m, err := Build(off, buildProfiles(t, rig, trace, []float64{1000, 1800}), true)
	if err != nil {
		t.Fatal(err)
	}
	// Predict each operator's power at interior frequencies and
	// compare against ground truth at the equilibrium ΔT of that
	// frequency. Average error should be single-digit percent
	// (Table 2 reports 4.62%).
	var errsCore, errsSoC []float64
	for _, f := range []units.MHz{1100, 1300, 1500, 1700} {
		th := thermal.NewState(rig.Thermal)
		p := profiler.Profiler{Chip: rig.Chip} // noiseless observation of truth
		if _, err := p.WarmupIterations(trace, float64(f), rig.Ground, th, 4000, 0.5); err != nil {
			t.Fatal(err)
		}
		deltaT := th.DeltaT()
		reps := workload.RepresentativeOps()
		for i := range reps {
			s := &reps[i]
			predCore, predSoC := m.OpPowerAt(s.Key(), f, deltaT)
			trueCore := rig.Ground.AICorePower(s, float64(f), float64(deltaT))
			trueSoC := rig.Ground.SoCPower(s, float64(f), float64(deltaT))
			errsCore = append(errsCore, stats.AbsRelError(float64(predCore), trueCore))
			errsSoC = append(errsSoC, stats.AbsRelError(float64(predSoC), trueSoC))
		}
	}
	if mean := stats.Mean(errsCore); mean > 0.08 {
		t.Errorf("mean AICore power error %.3f, want < 8%%", mean)
	}
	if mean := stats.Mean(errsSoC); mean > 0.08 {
		t.Errorf("mean SoC power error %.3f, want < 8%%", mean)
	}
}

func TestBuildValidation(t *testing.T) {
	_, off := calibrated(t)
	if _, err := Build(nil, nil, true); err == nil {
		t.Error("nil offline: want error")
	}
	if _, err := Build(off, nil, true); err == nil {
		t.Error("no profiles: want error")
	}
}

func TestTemperatureTermImprovesHotIdlePrediction(t *testing.T) {
	rig, off := calibrated(t)
	trace := testLoad()
	profiles := buildProfiles(t, rig, trace, []float64{1000, 1800})
	aware, err := Build(off, profiles, true)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := Build(off, profiles, false)
	if err != nil {
		t.Fatal(err)
	}
	// At a 30°C rise, the temperature term contributes several watts
	// of AICore leakage (Sect. 7.3 measures 3-8 W). The γ-aware model
	// must track it; the γ=0 model misses it on idle prediction.
	const deltaT = 30.0
	f := units.MHz(1500)
	truth := rig.Ground.AICorePower(nil, float64(f), deltaT)
	awareCore, _ := aware.OpPowerAt("nonexistent", f, deltaT)
	blindCore, _ := blind.OpPowerAt("nonexistent", f, deltaT)
	if eAware, eBlind := math.Abs(float64(awareCore)-truth), math.Abs(float64(blindCore)-truth); eAware >= eBlind {
		t.Errorf("temperature-aware idle error %g W should beat blind %g W", eAware, eBlind)
	}
}

func TestNonComputeOpsGetConstantExtra(t *testing.T) {
	rig, off := calibrated(t)
	trace := append(testLoad(),
		op.Spec{Name: "AllReduce", Class: op.Communication, FixedTime: 500},
		op.Spec{Name: "TopK", Class: op.AICPU, FixedTime: 200},
	)
	m, err := Build(off, buildProfiles(t, rig, trace, []float64{1000, 1800}), true)
	if err != nil {
		t.Fatal(err)
	}
	comm, ok := m.Ops["AllReduce"]
	if !ok {
		t.Fatal("communication op missing from model")
	}
	if comm.Compute {
		t.Error("communication op marked Compute")
	}
	if comm.ExtraSoC < rig.Ground.CommPower*0.5 || comm.ExtraSoC > rig.Ground.CommPower*1.5 {
		t.Errorf("AllReduce ExtraSoC = %g, want ~%g", comm.ExtraSoC, rig.Ground.CommPower)
	}
	// Its SoC power prediction must not scale with frequency beyond
	// the idle component.
	_, socLo := m.OpPowerAt("AllReduce", 1000, 10)
	_, socHi := m.OpPowerAt("AllReduce", 1800, 10)
	idleLo := off.SoC.Idle(1000, rig.Chip.Curve.Voltage(1000))
	idleHi := off.SoC.Idle(1800, rig.Chip.Curve.Voltage(1800))
	if math.Abs(float64((socHi-idleHi)-(socLo-idleLo))) > 1 {
		t.Errorf("non-compute extra varies with frequency: %g vs %g", socHi-idleHi, socLo-idleLo)
	}
}

func TestSolveDeltaTConvergesQuickly(t *testing.T) {
	// Linear self-consistency: P = 200 + 0.3·ΔT, k = 0.12 — the exact
	// fixpoint is ΔT = k·200/(1-0.3k).
	k := units.CelsiusPerWatt(0.12)
	psoc := func(dt units.Celsius) units.Watt { return units.Watt(200 + 0.3*float64(dt)) }
	dt, iters := SolveDeltaT(k, psoc)
	want := float64(k) * 200 / (1 - 0.3*float64(k))
	if math.Abs(float64(dt)-want) > 1e-3 {
		t.Errorf("fixpoint = %g, want %g", dt, want)
	}
	if iters > 8 {
		t.Errorf("took %d iterations, paper reports <= 4 at this scale", iters)
	}
}

// deltaTCase is one thermal feedback loop P_soc = p0 + slope·ΔT
// under ΔT = k·P_soc.
type deltaTCase struct {
	k     float64
	p0    float64
	slope float64
}

// randomDeltaTCases draws n seeded loops with k log-uniform in
// [1e-4, 0.5] °C/W, p0 uniform in [1, 5000] W and gain k·slope uniform
// in [gainLo, gainHi).
func randomDeltaTCases(seed int64, n int, gainLo, gainHi float64) []deltaTCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]deltaTCase, n)
	for i := range out {
		k := 1e-4 * math.Pow(5000, rng.Float64())
		gain := gainLo + (gainHi-gainLo)*rng.Float64()
		out[i] = deltaTCase{k: k, p0: 1 + 4999*rng.Float64(), slope: gain / k}
	}
	return out
}

func TestSolveDeltaTLinearMatchesIterative(t *testing.T) {
	// The closed form dt = k·p0/(1-k·slope) is the limit of the geometric
	// series the iterative solver walks. Compare against a reference
	// iterated until it stops changing (not SolveDeltaT itself, whose
	// 1e-6 tolerance stops a few ulps short, and not a fixed round
	// count: at gain 0.9, 200 rounds are still ~7e-10 from the limit).
	cases := append([]deltaTCase{
		{0.12, 200, 0.3},
		{0.05, 350, 0},
		{0.02, 80, 1.9},
		{0.3, 15, 2.5},
		{0.0007, 4200, 0.9},
	}, randomDeltaTCases(4, 500, 0, 0.9)...)
	for _, c := range cases {
		got := float64(SolveDeltaTLinear(units.CelsiusPerWatt(c.k), units.Watt(c.p0), c.slope))
		// With p0, k, slope >= 0 the iterates rise monotonically from
		// 0, so the first round that does not rise has reached the
		// limit in floating point.
		ref, rounds := 0.0, 0
		for ; rounds < 100000; rounds++ {
			next := c.k * (c.p0 + c.slope*ref)
			if next <= ref {
				break
			}
			ref = next
		}
		if rounds == 100000 {
			t.Fatalf("k=%g p0=%g slope=%g: reference did not settle", c.k, c.p0, c.slope)
		}
		if ref != 0 && math.Abs(got-ref)/math.Abs(ref) > 1e-9 {
			t.Errorf("k=%g p0=%g slope=%g: closed form %g, iterative reference %g", c.k, c.p0, c.slope, got, ref)
		}
	}
}

func TestSolveDeltaTLinearRunawayFallsBackToIterative(t *testing.T) {
	// gain = k·slope >= 1 has no finite fixpoint; the closed form would
	// divide by zero or flip sign. The function must fall back to the
	// bounded iterative solver and return whatever it returns.
	cases := append([]deltaTCase{
		{0.5, 100, 2.5}, // gain = 1.25
	}, randomDeltaTCases(5, 500, 1, 4)...)
	for _, c := range cases {
		k, p0, slope := units.CelsiusPerWatt(c.k), units.Watt(c.p0), c.slope
		if c.k*slope < 1 {
			// gain/k·k rounded just below 1: nudge it back to runaway.
			slope = math.Nextafter(slope, math.Inf(1))
		}
		got := SolveDeltaTLinear(k, p0, slope)
		want, _ := SolveDeltaT(k, func(dt units.Celsius) units.Watt {
			return units.Watt(float64(p0) + slope*float64(dt))
		})
		if got != want {
			t.Errorf("k=%g p0=%g slope=%g: closed-form path returned %g, iterative fallback %g", c.k, c.p0, slope, got, want)
		}
		if math.IsNaN(float64(got)) || math.IsInf(float64(got), 0) {
			t.Errorf("k=%g p0=%g slope=%g: runaway case produced non-finite %g", c.k, c.p0, slope, got)
		}
	}
}

func TestOpPowerAtUnknownKeyIsIdle(t *testing.T) {
	rig, off := calibrated(t)
	m := &Model{Offline: off, Ops: map[string]OpPower{}, TemperatureAware: true}
	core, soc := m.OpPowerAt("missing", 1500, 0)
	v := rig.Chip.Curve.Voltage(1500)
	if core != off.AICore.Idle(1500, v) || soc != off.SoC.Idle(1500, v) {
		t.Error("unknown key should predict idle power")
	}
}
