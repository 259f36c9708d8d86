package dualdvfs

import (
	"context"
	"math"
	"sync"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/profiler"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// fixture builds the two-domain modeling context on BERT once.
type fixture struct {
	chip   *npu.Chip
	ground *powersim.Ground
	input  Input
	model  *workload.Model
	err    error
}

var (
	fixOnce sync.Once
	fix     fixture
)

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix = buildFixture() })
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return &fix
}

func buildFixture() fixture {
	chip := npu.Default()
	ground := powersim.Default(chip)
	rig := &powermodel.Rig{
		Chip: chip, Ground: ground,
		Sensor: powersim.NewSensor(31), Thermal: thermal.Default(),
	}
	m := workload.BERT()
	off, err := powermodel.Calibrate(rig, m.Trace, powermodel.DefaultCalibrateOptions())
	if err != nil {
		return fixture{err: err}
	}
	prof := profiler.Profiler{Chip: chip, Sensor: rig.Sensor, TimeNoiseFrac: 0.01}
	var profiles []*profiler.Profile
	for _, f := range []float64{1000, 1800} {
		th := thermal.NewState(rig.Thermal)
		if _, err := prof.WarmupIterations(m.Trace, f, ground, th, 4000, 0.5); err != nil {
			return fixture{err: err}
		}
		p, err := prof.RunPower(m.Trace, f, ground, th)
		if err != nil {
			return fixture{err: err}
		}
		profiles = append(profiles, p)
	}
	power, err := powermodel.Build(off, profiles, true)
	if err != nil {
		return fixture{err: err}
	}
	dyn, err := CalibrateUncore(rig, 0.8, 64)
	if err != nil {
		return fixture{err: err}
	}
	baseline, err := prof.Run(m.Trace, 1800)
	if err != nil {
		return fixture{err: err}
	}
	return fixture{
		chip:   chip,
		ground: ground,
		model:  m,
		input: Input{
			Chip: chip, Profile: baseline, Power: power, UncoreDynW: dyn,
		},
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GA.PopSize = 60
	cfg.GA.Generations = 150
	cfg.GA.Seed = 13
	cfg.PerfLossTarget = 0.04
	return cfg
}

func TestCalibrateUncoreRecoversDynShare(t *testing.T) {
	f := sharedFixture(t)
	// The ground truth's clock-proportional idle share is
	// UncoreIdleDyn; calibration must land near it.
	if rel := math.Abs(f.input.UncoreDynW-f.ground.UncoreIdleDyn) / f.ground.UncoreIdleDyn; rel > 0.1 {
		t.Errorf("calibrated dyn = %g W, truth %g W", f.input.UncoreDynW, f.ground.UncoreIdleDyn)
	}
}

func TestCalibrateUncoreValidation(t *testing.T) {
	if _, err := CalibrateUncore(nil, 0.8, 8); err == nil {
		t.Error("nil rig: want error")
	}
	f := sharedFixture(t)
	rig := &powermodel.Rig{Chip: f.chip, Ground: f.ground, Sensor: powersim.NewSensor(1), Thermal: thermal.Default()}
	if _, err := CalibrateUncore(rig, 1.2, 8); err == nil {
		t.Error("scale > 1: want error")
	}
	if _, err := CalibrateUncore(rig, 0, 8); err == nil {
		t.Error("zero scale: want error")
	}
}

func TestGenerateValidation(t *testing.T) {
	f := sharedFixture(t)
	bad := f.input
	bad.Chip = nil
	if _, _, _, err := GenerateContext(context.Background(), bad, testConfig()); err == nil {
		t.Error("nil chip: want error")
	}
	cfg := testConfig()
	cfg.UncoreScales = []float64{1.5}
	if _, _, _, err := GenerateContext(context.Background(), f.input, cfg); err == nil {
		t.Error("invalid uncore scale: want error")
	}
}

func TestDualStrategyBeatsCoreOnlySoCSavings(t *testing.T) {
	f := sharedFixture(t)
	// Two-domain search at a 4% target. The allele space is 4x the
	// core-only one, so the search gets a proportionally larger
	// budget.
	dualCfg := testConfig()
	dualCfg.GA.PopSize = 100
	dualCfg.GA.Generations = 400
	dualStrat, _, _, err := GenerateContext(context.Background(), f.input, dualCfg)
	if err != nil {
		t.Fatal(err)
	}
	if dualStrat.UncoreSwitches() == 0 {
		t.Error("two-domain strategy never touches the uncore; expected it to exploit the new knob")
	}
	// Core-only ablation: identical machinery with the uncore knob
	// removed, so both searches share models, scoring and budget.
	coreCfg := testConfig()
	coreCfg.UncoreScales = []float64{1.0}
	coreStrat, _, _, err := GenerateContext(context.Background(), f.input, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := executor.New(f.chip, f.ground)
	measure := func(s *core.Strategy) *executor.Result {
		th := thermal.NewState(thermal.Default())
		res, err := ex.RunStable(f.model.Trace, s, th, executor.DefaultOptions(), 4000, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := measure(executor.FixedStrategy(1800))
	dual := measure(dualStrat)
	coreOnly := measure(coreStrat)
	dualSoC := 1 - dual.MeanSoCW/base.MeanSoCW
	coreSoC := 1 - coreOnly.MeanSoCW/base.MeanSoCW
	if dualSoC <= coreSoC {
		t.Errorf("two-domain SoC saving %.3f should exceed core-only %.3f", dualSoC, coreSoC)
	}
	if loss := dual.TimeMicros/base.TimeMicros - 1; loss > 0.06 {
		t.Errorf("two-domain loss %.3f far beyond the 4%% target", loss)
	}
}

func TestPairAlleleRoundTrip(t *testing.T) {
	p := &problem{grid: []units.MHz{1000, 1100, 1200}, scales: []float64{1, 0.9}}
	for fi := range p.grid {
		for sc := range p.scales {
			got := p.pairOf(p.alleleOf(fi, sc))
			if got.freqIdx != fi || got.scaleIdx != sc {
				t.Fatalf("allele round trip (%d,%d) -> %+v", fi, sc, got)
			}
		}
	}
}

func TestScalesAutoIncludeNominal(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig()
	cfg.UncoreScales = []float64{0.9}
	cfg.GA = ga.Config{PopSize: 4, Generations: 1, MutationRate: 0.1, CrossoverRate: 0.5, Seed: 1}
	strat, _, _, err := GenerateContext(context.Background(), f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strat == nil {
		t.Fatal("nil strategy")
	}
}
