// Package pipeline is the paper's Fig. 1 pipeline on the simulated NPU,
// stage by stage: trace → offline calibration (Lab.Offline, Sect. 5) →
// profiling runs (Lab.PowerProfiles, Lab.TimingProfiles) → perf/power
// fits (Lab.BuildModels, or Lab.ModelsFromBundle with models fitted
// earlier; Lab.ModelsFor chooses) → stages, evaluator and search
// (core.Search on Models.Input, Sect. 6) → strategy → measurement
// (Lab.MeasureFixed, Lab.MeasureStrategy, Sect. 7). The daemon, the
// command-line tools and the experiment harness all reach the pipeline
// here; it holds no harness state.
package pipeline

import (
	"fmt"
	"strings"
	"sync"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/profiler"
	"npudvfs/internal/thermal"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// Lab is the shared experimental setup: the simulated chip, its
// ground-truth power, thermal constants, and the one-time offline
// power calibration. All randomness is seeded for reproducibility.
type Lab struct {
	Chip    *npu.Chip
	Ground  *powersim.Ground
	Thermal thermal.Params
	Seed    int64

	calOnce sync.Once
	offline *powermodel.Offline
	calErr  error
}

// NewLab returns the reference laboratory configuration.
func NewLab() *Lab {
	chip := npu.Default()
	return NewLabFor(chip, powersim.Default(chip), thermal.Default(), 2025)
}

// NewLabFor builds a laboratory around a custom accelerator: its chip
// parameters, ground-truth power and thermal constants. This is the
// entry point for porting the methodology to other hardware
// (Sect. 8.3).
func NewLabFor(chip *npu.Chip, ground *powersim.Ground, th thermal.Params, seed int64) *Lab {
	return &Lab{Chip: chip, Ground: ground, Thermal: th, Seed: seed}
}

// Offline returns the chip's offline power calibration, computed once
// per lab using a representative test load (Fig. 11, offline phase).
func (l *Lab) Offline() (*powermodel.Offline, error) {
	l.calOnce.Do(func() {
		var load []op.Spec
		reps := workload.RepresentativeOps()
		for i := 0; i < 60; i++ {
			load = append(load, reps...)
		}
		rig := &powermodel.Rig{
			Chip:    l.Chip,
			Ground:  l.Ground,
			Sensor:  powersim.NewSensor(l.Seed + 7001),
			Thermal: l.Thermal,
		}
		l.offline, l.calErr = powermodel.Calibrate(rig, load, powermodel.DefaultCalibrateOptions())
	})
	return l.offline, l.calErr
}

// TimingProfiles profiles the model once per frequency (timing and
// ratios only).
func (l *Lab) TimingProfiles(m *workload.Model, freqs []units.MHz) ([]*profiler.Profile, error) {
	p := profiler.New(l.Chip, l.Seed+100)
	var out []*profiler.Profile
	for _, f := range freqs {
		prof, err := p.Run(m.Trace, float64(f))
		if err != nil {
			return nil, fmt.Errorf("profiling %s at %g MHz: %w", m.Name, float64(f), err)
		}
		out = append(out, prof)
	}
	return out, nil
}

// PowerProfiles collects thermally stable power profiles of the model
// at each frequency.
func (l *Lab) PowerProfiles(m *workload.Model, freqs []units.MHz) ([]*profiler.Profile, error) {
	p := profiler.New(l.Chip, l.Seed+200)
	var out []*profiler.Profile
	for _, f := range freqs {
		th := thermal.NewState(l.Thermal)
		if _, err := p.WarmupIterations(m.Trace, float64(f), l.Ground, th, 4000, 0.5); err != nil {
			return nil, fmt.Errorf("warming %s at %g MHz: %w", m.Name, float64(f), err)
		}
		prof, err := p.RunPower(m.Trace, float64(f), l.Ground, th)
		if err != nil {
			return nil, fmt.Errorf("power-profiling %s at %g MHz: %w", m.Name, float64(f), err)
		}
		out = append(out, prof)
	}
	return out, nil
}

// Models bundles everything needed to optimize one workload.
type Models struct {
	Workload *workload.Model
	Baseline *profiler.Profile
	Perf     map[string]perfmodel.Model
	Power    *powermodel.Model
}

// BuildModels runs the full modeling pipeline of Fig. 1 for a
// workload: power profiles at the fit frequencies feed both the
// per-operator performance models and the online power model, and a
// separate baseline profile anchors strategy generation.
func (l *Lab) BuildModels(m *workload.Model, temperatureAware bool) (*Models, error) {
	off, err := l.Offline()
	if err != nil {
		return nil, err
	}
	plan := l.Chip.Curve.Plan()
	profiles, err := l.PowerProfiles(m, plan.PowerFit)
	if err != nil {
		return nil, err
	}
	power, err := powermodel.Build(off, profiles, temperatureAware)
	if err != nil {
		return nil, err
	}
	// Performance fitting adds one timing-only profile at the middle
	// frequency to the two power-profiled endpoints.
	mid, err := l.TimingProfiles(m, []units.MHz{plan.Mid})
	if err != nil {
		return nil, err
	}
	perf := perfmodel.FitSeries(seriesList(append(profiles, mid...)), plan.PerfFit)
	baseline, err := profiler.New(l.Chip, l.Seed+300).Run(m.Trace, float64(l.Chip.Curve.Max()))
	if err != nil {
		return nil, err
	}
	return &Models{Workload: m, Baseline: baseline, Perf: perf, Power: power}, nil
}

func seriesList(profiles []*profiler.Profile) []*profiler.Series {
	bykey := profiler.BuildSeries(profiles)
	out := make([]*profiler.Series, 0, len(bykey))
	for _, s := range bykey {
		out = append(out, s)
	}
	return out
}

// Input converts Models into the strategy-generation input.
func (ms *Models) Input(chip *npu.Chip) core.Input {
	return core.Input{Chip: chip, Profile: ms.Baseline, Perf: ms.Perf, Power: ms.Power}
}

// Bundle serializes the fitted models for reuse across runs
// (dvfs-run -save-models, dvfsd -load-models).
func (ms *Models) Bundle() (*traceio.ModelBundle, error) {
	return traceio.NewModelBundle(ms.Workload.Name, ms.Perf, ms.Power)
}

// ModelsFromBundle reconstructs Models from a saved bundle, skipping
// the offline calibration and the fit-frequency profiling runs — the
// expensive front half of BuildModels. Only the baseline profile is
// regenerated, with the same profiler seed BuildModels uses, so
// strategies generated from a loaded bundle are byte-identical to ones
// generated from freshly built models.
func (l *Lab) ModelsFromBundle(m *workload.Model, b *traceio.ModelBundle) (*Models, error) {
	if b == nil {
		return nil, fmt.Errorf("pipeline: nil model bundle")
	}
	if b.Workload != "" && !strings.EqualFold(b.Workload, m.Name) {
		return nil, fmt.Errorf("pipeline: bundle fitted on %q, not %q", b.Workload, m.Name)
	}
	baseline, err := profiler.New(l.Chip, l.Seed+300).Run(m.Trace, float64(l.Chip.Curve.Max()))
	if err != nil {
		return nil, err
	}
	return &Models{
		Workload: m,
		Baseline: baseline,
		Perf:     b.PerfModels(),
		Power:    b.PowerModel(&powermodel.Offline{Chip: l.Chip}),
	}, nil
}

// ModelsFor returns a job's models: from the bundle keyed by m's
// lower-cased name when it was fitted on m's trace, else freshly built.
// A bundle is fitted on the registry trace of its name, so it serves a
// named job, and an inline trace only when fingerprint (m's, unread for
// a named job) equals that registry trace's.
func (l *Lab) ModelsFor(m *workload.Model, named bool, fingerprint string, bundles map[string]*traceio.ModelBundle) (*Models, error) {
	name := strings.ToLower(m.Name)
	want, registered := registryPrints[name]
	if b, ok := bundles[name]; ok && (named || registered && want() == fingerprint) {
		return l.ModelsFromBundle(m, b)
	}
	return l.BuildModels(m, true)
}

// registryPrints maps each registry name to its trace's fingerprint,
// worked out once per name per process on a fresh build, so a daemon
// that serves only inline traces does not keep the registry's models.
var registryPrints = func() map[string]func() string {
	prints := make(map[string]func() string)
	for _, name := range workload.Names() {
		prints[name] = sync.OnceValue(func() string {
			m, _ := workload.Build(name) // a name from Names resolves
			return traceio.Fingerprint(m.Trace)
		})
	}
	return prints
}()

// MeasureFixed executes the workload at a fixed frequency until
// thermally stable and returns the measured result.
func (l *Lab) MeasureFixed(m *workload.Model, f units.MHz) (*executor.Result, error) {
	ex := executor.New(l.Chip, l.Ground)
	th := thermal.NewState(l.Thermal)
	return ex.RunStable(m.Trace, executor.FixedStrategy(f), th, executor.DefaultOptions(), 4000, 0.5)
}

// MeasureStrategy executes the workload under a strategy until
// thermally stable.
func (l *Lab) MeasureStrategy(m *workload.Model, strat *core.Strategy, opt executor.Options) (*executor.Result, error) {
	ex := executor.New(l.Chip, l.Ground)
	th := thermal.NewState(l.Thermal)
	return ex.RunStable(m.Trace, strat, th, opt, 4000, 0.5)
}
