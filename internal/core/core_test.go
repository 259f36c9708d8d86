package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"npudvfs/internal/evaltab"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// fixture is the end-to-end modeling context shared by the tests:
// chip, ground truth, calibrated power model, perf models and a
// baseline profile of a BERT iteration.
type fixture struct {
	chip  *npu.Chip
	input Input
	err   error
}

var (
	fixOnce sync.Once
	fix     fixture
)

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		fix = buildFixture()
	})
	if fix.err != nil {
		t.Fatal(fix.err)
	}
	return &fix
}

func buildFixture() fixture {
	chip := npu.Default()
	ground := powersim.Default(chip)
	rig := &powermodel.Rig{
		Chip:    chip,
		Ground:  ground,
		Sensor:  powersim.NewSensor(11),
		Thermal: thermal.Default(),
	}
	trace := workload.BERT().Trace
	off, err := powermodel.Calibrate(rig, trace, powermodel.DefaultCalibrateOptions())
	if err != nil {
		return fixture{err: err}
	}
	prof := profiler.Profiler{Chip: chip, Sensor: rig.Sensor, TimeNoiseFrac: 0.01}
	var powerProfiles []*profiler.Profile
	var timingProfiles []*profiler.Profile
	for _, f := range []float64{1000, 1800} {
		thState := thermal.NewState(rig.Thermal)
		if _, err := prof.WarmupIterations(trace, f, ground, thState, 4000, 0.5); err != nil {
			return fixture{err: err}
		}
		p, err := prof.RunPower(trace, f, ground, thState)
		if err != nil {
			return fixture{err: err}
		}
		powerProfiles = append(powerProfiles, p)
		timingProfiles = append(timingProfiles, p)
	}
	power, err := powermodel.Build(off, powerProfiles, true)
	if err != nil {
		return fixture{err: err}
	}
	series := profiler.BuildSeries(timingProfiles)
	var list []*profiler.Series
	for _, s := range series {
		list = append(list, s)
	}
	perf := perfmodel.FitSeries(list, []units.MHz{1000, 1800})
	baseline, err := prof.Run(trace, 1800)
	if err != nil {
		return fixture{err: err}
	}
	return fixture{
		chip: chip,
		input: Input{
			Chip:    chip,
			Profile: baseline,
			Perf:    perf,
			Power:   power,
		},
	}
}

// testConfig shrinks the GA for test speed while keeping the paper's
// structure.
func testConfig(lossTarget float64) Config {
	cfg := DefaultConfig()
	cfg.PerfLossTarget = lossTarget
	cfg.GA.PopSize = 60
	cfg.GA.Generations = 120
	cfg.GA.Seed = 5
	return cfg
}

func TestGenerateProducesValidStrategy(t *testing.T) {
	f := sharedFixture(t)
	strat, stages, res, err := GenerateContext(context.Background(), f.input, testConfig(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if err := preprocess.Validate(stages, len(f.input.Profile.Records)); err != nil {
		t.Fatal(err)
	}
	if len(strat.Points) == 0 {
		t.Fatal("empty strategy")
	}
	if strat.Points[0].OpIndex != 0 {
		t.Errorf("first point at op %d, want 0", strat.Points[0].OpIndex)
	}
	for _, p := range strat.Points {
		if !f.chip.Curve.Contains(p.FreqMHz) {
			t.Errorf("strategy frequency %g not on the grid", p.FreqMHz)
		}
	}
	if res.BestScore <= 0 {
		t.Errorf("best score = %g", res.BestScore)
	}
	// Elitism plus baseline seeding: history must never regress and
	// the final score must beat or match generation zero.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("score regressed at generation %d", i)
		}
	}
}

func TestGeneratedStrategySavesPowerWithinLossTarget(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	strat, stages, _, err := GenerateContext(context.Background(), f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the best assignment's prediction via the strategy.
	ind := make([]int, len(stages))
	grid := f.chip.Curve.Grid()
	for si, st := range stages {
		fm := strat.FreqAt(st.OpStart)
		for gi, g := range grid {
			if g == fm {
				ind[si] = gi
			}
		}
	}
	pred, err := PredictAssignment(f.input, cfg, stages, ind)
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]int, len(stages))
	for i := range baseline {
		baseline[i] = len(grid) - 1
	}
	base, err := PredictAssignment(f.input, cfg, stages, baseline)
	if err != nil {
		t.Fatal(err)
	}
	loss := float64(pred.TimeMicros/base.TimeMicros) - 1
	if loss > cfg.PerfLossTarget+0.02 {
		t.Errorf("predicted performance loss %.3f exceeds target %.3f", loss, cfg.PerfLossTarget)
	}
	if pred.CoreWatts >= base.CoreWatts {
		t.Errorf("no AICore power saving: %g vs %g W", pred.CoreWatts, base.CoreWatts)
	}
	if pred.SoCWatts >= base.SoCWatts {
		t.Errorf("no SoC power saving: %g vs %g W", pred.SoCWatts, base.SoCWatts)
	}
	// The paper's headline shape: AICore savings out-proportion SoC
	// savings because the uncore is untunable (Sect. 8.2).
	coreSave := 1 - float64(pred.CoreWatts/base.CoreWatts)
	socSave := 1 - float64(pred.SoCWatts/base.SoCWatts)
	if coreSave <= socSave {
		t.Errorf("AICore relative saving (%.3f) should exceed SoC saving (%.3f)", coreSave, socSave)
	}
}

func TestLooserTargetSavesMorePower(t *testing.T) {
	f := sharedFixture(t)
	socAt := func(target float64) float64 {
		cfg := testConfig(target)
		strat, stages, _, err := GenerateContext(context.Background(), f.input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		grid := f.chip.Curve.Grid()
		ind := make([]int, len(stages))
		for si, st := range stages {
			fm := strat.FreqAt(st.OpStart)
			for gi, g := range grid {
				if g == fm {
					ind[si] = gi
				}
			}
		}
		pred, err := PredictAssignment(f.input, cfg, stages, ind)
		if err != nil {
			t.Fatal(err)
		}
		return float64(pred.CoreWatts)
	}
	tight := socAt(0.02)
	loose := socAt(0.10)
	if loose > tight*1.01 {
		t.Errorf("10%% target should allow at least the 2%% target's AICore savings: %g vs %g W", loose, tight)
	}
}

func TestStrategyFreqAtAndSwitches(t *testing.T) {
	s := &Strategy{
		BaselineMHz: 1800,
		Points: []FreqPoint{
			{OpIndex: 0, FreqMHz: 1800},
			{OpIndex: 5, FreqMHz: 1200},
			{OpIndex: 9, FreqMHz: 1800},
		},
	}
	cases := []struct {
		op   int
		want units.MHz
	}{{0, 1800}, {4, 1800}, {5, 1200}, {8, 1200}, {9, 1800}, {100, 1800}}
	for _, tc := range cases {
		if got := s.FreqAt(tc.op); got != tc.want {
			t.Errorf("FreqAt(%d) = %g, want %g", tc.op, got, tc.want)
		}
	}
	if s.Switches() != 2 {
		t.Errorf("Switches() = %d, want 2", s.Switches())
	}
}

func TestGenerateValidation(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	bad := f.input
	bad.Chip = nil
	if _, _, _, err := GenerateContext(context.Background(), bad, cfg); err == nil {
		t.Error("nil chip: want error")
	}
	bad = f.input
	bad.Profile = nil
	if _, _, _, err := GenerateContext(context.Background(), bad, cfg); err == nil {
		t.Error("nil profile: want error")
	}
	bad = f.input
	bad.Power = nil
	if _, _, _, err := GenerateContext(context.Background(), bad, cfg); err == nil {
		t.Error("nil power model: want error")
	}
	bad = f.input
	bad.Perf = nil
	if _, _, _, err := GenerateContext(context.Background(), bad, cfg); err == nil {
		t.Error("nil perf models: want error")
	}
}

func TestPredictAssignmentValidation(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	_, stages, _, err := GenerateContext(context.Background(), f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictAssignment(f.input, cfg, stages, []int{0}); err == nil && len(stages) != 1 {
		t.Error("gene/stage mismatch: want error")
	}
}

func TestPriorSeedIsFeasibleAndCompetitive(t *testing.T) {
	// The paper observes that at the 2% target the prior individual
	// (LFC at 1600, HFC at 1800) is already near-optimal. Check the
	// prior scores at least as well as the baseline.
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	cfg.Guard = 1 // the paper's setting: the bound is the target itself
	prob, err := buildProblem(f.input, cfg, mustStages(t, f, cfg))
	if err != nil {
		t.Fatal(err)
	}
	seeds := prob.Seeds()
	if len(seeds) != 2 {
		t.Fatalf("got %d seeds, want 2 (baseline + prior)", len(seeds))
	}
	baseScore := prob.Score(seeds[0])
	priorScore := prob.Score(seeds[1])
	if priorScore < baseScore {
		t.Errorf("prior individual (%g) should score >= baseline (%g)", priorScore, baseScore)
	}
	basePred := prob.predict(seeds[0])
	priorPred := prob.predict(seeds[1])
	if loss := float64(priorPred.TimeMicros/basePred.TimeMicros) - 1; loss > cfg.PerfLossTarget {
		t.Errorf("prior individual predicted loss %.4f violates the 2%% bound", loss)
	}
}

func mustStages(t *testing.T, f *fixture, cfg Config) []preprocess.Stage {
	t.Helper()
	_, stages, _, err := GenerateContext(context.Background(), f.input, Config{
		FAIMicros:      cfg.FAIMicros,
		PerfLossTarget: cfg.PerfLossTarget,
		GA:             ga.Config{PopSize: 4, Generations: 1, Seed: 1, MutationRate: 0.1, CrossoverRate: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stages
}

func TestDeltaTSelfConsistency(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	stages := mustStages(t, f, cfg)
	prob, err := buildProblem(f.input, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]int, len(stages))
	for i := range baseline {
		baseline[i] = prob.baselineIdx
	}
	pred := prob.predict(baseline)
	if pred.DeltaT <= 0 {
		t.Fatalf("baseline ΔT = %g, want positive", pred.DeltaT)
	}
	// ΔT must satisfy Eq. 15 against the predicted SoC power.
	if got := units.CelsiusPerWatt(prob.Table.K).Times(pred.SoCWatts); math.Abs(float64(got-pred.DeltaT)) > 0.01 {
		t.Errorf("ΔT = %g inconsistent with k·P = %g", pred.DeltaT, got)
	}
}

// The evaluator's precomputed stage tables must agree with a direct
// per-operator summation of the same models.
func TestEvaluatorMatchesDirectSummation(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	stages := mustStages(t, f, cfg)
	ev, err := NewEvaluator(f.input, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	grid := f.chip.Curve.Grid()
	// A deterministic mixed assignment.
	ind := make([]int, len(stages))
	for i := range ind {
		ind[i] = (i*3 + 1) % len(grid)
	}
	pred, err := ev.Predict(ind)
	if err != nil {
		t.Fatal(err)
	}
	// Direct summation of predicted times.
	var direct float64
	for si, st := range stages {
		fm := grid[ind[si]]
		for i := st.OpStart; i < st.OpEnd; i++ {
			rec := &f.input.Profile.Records[i]
			if m, ok := f.input.Perf[rec.Spec.Key()]; ok && rec.Spec.Class == 0 /* Compute */ {
				direct += float64(m.Micros(fm))
			} else {
				direct += rec.DurMicros
			}
		}
	}
	if rel := math.Abs(float64(pred.TimeMicros)-direct) / direct; rel > 1e-9 {
		t.Errorf("evaluator time %.3f diverges from direct sum %.3f", pred.TimeMicros, direct)
	}
}

// Higher frequencies must never predict more time on any single-stage
// change (perf models are monotone within the grid for our operators).
func TestPredictMonotoneInFrequency(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	stages := mustStages(t, f, cfg)
	ev, err := NewEvaluator(f.input, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	grid := f.chip.Curve.Grid()
	base := make([]int, len(stages))
	for i := range base {
		base[i] = len(grid) - 1
	}
	basePred, _ := ev.Predict(base)
	for si := 0; si < len(stages); si += 7 {
		ind := append([]int(nil), base...)
		ind[si] = 0 // drop one stage to 1000 MHz
		pred, err := ev.Predict(ind)
		if err != nil {
			t.Fatal(err)
		}
		if pred.TimeMicros+1e-9 < basePred.TimeMicros {
			t.Errorf("stage %d at 1000 MHz predicted faster than baseline", si)
		}
		if pred.CoreWatts > basePred.CoreWatts+1e-9 {
			t.Errorf("stage %d at 1000 MHz predicted more AICore power", si)
		}
	}
}

// TestTableMatchesCellMajorFill rebuilds the evaluator table in the
// stage → grid point → operator nesting buildProblem used before it
// went operator-major, with the key, the model lookup and OpPowerAt
// paid per cell, and requires the same bits in every cell: hoisting
// the lookups must not change what is summed or in which order.
func TestTableMatchesCellMajorFill(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	stages := mustStages(t, f, cfg)
	prob, err := buildProblem(f.input, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	in := f.input
	grid := in.Chip.Curve.Grid()
	ref := evaltab.New(len(stages), len(grid))
	for si, st := range stages {
		for gi, fm := range grid {
			v := float64(in.Chip.Curve.Voltage(fm))
			for i := st.OpStart; i < st.OpEnd; i++ {
				rec := &in.Profile.Records[i]
				dur := rec.DurMicros
				if rec.Spec.Class == op.Compute {
					if m, ok := in.Perf[rec.Spec.Key()]; ok {
						dur = float64(m.Micros(fm))
					}
				}
				core, soc := in.Power.OpPowerAt(rec.Spec.Key(), fm, 0)
				ref.Add(si, gi, dur, float64(soc)*dur, float64(core)*dur, v*dur)
			}
		}
	}
	ref.K, ref.TemperatureAware = prob.K, prob.TemperatureAware
	ref.GammaCore, ref.GammaSoC = prob.GammaCore, prob.GammaSoC
	ref.PerBaseline, ref.PerLB = prob.PerBaseline, prob.PerLB
	if !reflect.DeepEqual(ref, prob.Table) {
		t.Fatal("operator-major table differs from the cell-major fill")
	}
}

// TestSearchReturnsTheScoringEvaluator: the evaluator Search hands
// back is the one the GA ran on — it reproduces the winning score, and
// a fresh NewEvaluator over its stages predicts the same numbers — and
// GenerateContext is Search plus the two accessors.
func TestSearchReturnsTheScoringEvaluator(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	cfg.GA.Generations = 20
	ev, res, err := Search(context.Background(), f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Score(res.Best); got != res.BestScore {
		t.Errorf("returned evaluator scores the winner %g, search reported %g", got, res.BestScore)
	}
	fresh, err := NewEvaluator(f.input, cfg, ev.Stages())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Predict(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Predict(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("returned evaluator predicts %+v, a fresh one %+v", got, want)
	}
	strat, stages, res2, err := GenerateContext(context.Background(), f.input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strat, ev.Strategy(res.Best)) || !reflect.DeepEqual(stages, ev.Stages()) || !reflect.DeepEqual(res2.Best, res.Best) {
		t.Error("GenerateContext disagrees with Search on the same input")
	}
}
