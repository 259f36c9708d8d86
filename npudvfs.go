// Package npudvfs is an end-to-end reproduction of "Using Analytical
// Performance/Power Model and Fine-Grained DVFS to Enhance AI
// Accelerator Energy Efficiency" (ASPLOS '25): analytical per-operator
// performance models under frequency scaling, a temperature-aware
// power model, and genetic-algorithm generation of operator-level DVFS
// strategies, evaluated on a simulated Ascend-class NPU.
//
// This package is the public facade over the implementation packages:
//
//   - a simulated accelerator (Chip) with the paper's memory-hierarchy
//     abstraction and firmware voltage-frequency curve;
//   - workload builders (GPT-3, BERT, ResNet, ... ) producing operator
//     traces;
//   - a profiler standing in for the CANN profiler and lpmi_tool;
//   - performance-model fitting (Sect. 4) and power-model construction
//     (Sect. 5);
//   - DVFS strategy generation (Sect. 6) and a SetFreq executor
//     (Sect. 7.1);
//   - a Lab running the Fig. 1 pipeline: calibration, profiling, model
//     fits and measurement.
//
// The quickest route through the API is:
//
//	ctx := context.Background() // cancel it to stop the search
//	lab := npudvfs.NewLab()
//	model, _ := npudvfs.WorkloadByName("gpt3")
//	ms, _ := lab.BuildModels(model, true)
//	strategy, _ := npudvfs.GenerateStrategy(ctx, ms.Input(lab.Chip), npudvfs.DefaultStrategyConfig())
//	result, _ := lab.MeasureStrategy(model, strategy, npudvfs.DefaultExecutorOptions())
//
// See examples/ for runnable programs and DESIGN.md for the mapping
// between paper sections and packages.
package npudvfs

import (
	"context"

	"npudvfs/internal/adaptive"
	"npudvfs/internal/core"
	"npudvfs/internal/dualdvfs"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/profiler"
	"npudvfs/internal/server"
	"npudvfs/internal/server/client"
	"npudvfs/internal/thermal"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/vf"
	"npudvfs/internal/workload"
)

// Physical quantities. The model stack carries frequencies, times,
// voltages, powers and temperatures as these defined types; the
// dvfslint unitcheck rule keeps raw float64 from leaking back into the
// model APIs.
type (
	// MHz is an AICore frequency in megahertz.
	MHz = units.MHz
	// Micros is a duration in microseconds.
	Micros = units.Micros
	// Millis is a duration in milliseconds.
	Millis = units.Millis
	// Volt is a supply voltage.
	Volt = units.Volt
	// Watt is a power.
	Watt = units.Watt
	// Celsius is a temperature.
	Celsius = units.Celsius
	// Millijoule is an energy.
	Millijoule = units.Millijoule
)

// Hardware abstraction.
type (
	// Chip is the simulated accelerator: memory-hierarchy constants,
	// core count and the voltage-frequency curve.
	Chip = npu.Chip
	// VFCurve is a firmware voltage-frequency table.
	VFCurve = vf.Curve
	// OpSpec describes one operator: timeline scenario, block count,
	// Ld/St volumes, core cycles, pipeline and class.
	OpSpec = op.Spec
	// ThermalParams are the die's thermal constants (Eq. 15).
	ThermalParams = thermal.Params
	// GroundTruthPower generates the simulated chip's true power.
	GroundTruthPower = powersim.Ground
)

// Workloads and profiling.
type (
	// Workload is a named operator trace of one iteration.
	Workload = workload.Model
	// Profiler executes traces and records durations, pipeline
	// ratios, and power/temperature telemetry.
	Profiler = profiler.Profiler
	// Profile is one profiled iteration.
	Profile = profiler.Profile
)

// Models.
type (
	// PerfModel is the production performance model, Func. 2:
	// T(f) = A·f + C/f.
	PerfModel = perfmodel.Model
	// PowerModel is the temperature-aware per-operator power model.
	PowerModel = powermodel.Model
	// PowerCalibration holds the offline hardware parameters.
	PowerCalibration = powermodel.Offline
)

// Strategy generation and execution.
type (
	// Strategy is a generated per-iteration DVFS policy.
	Strategy = core.Strategy
	// FreqPoint is one frequency-change instruction of a Strategy.
	FreqPoint = core.FreqPoint
	// StrategyConfig tunes strategy generation.
	StrategyConfig = core.Config
	// StrategyInput bundles profile and models for generation.
	StrategyInput = core.Input
	// GAConfig tunes the genetic search.
	GAConfig = ga.Config
	// ExecutorOptions controls SetFreq actuation behaviour.
	ExecutorOptions = executor.Options
	// ExecutionResult is a measured iteration outcome.
	ExecutionResult = executor.Result
	// Executor runs traces under strategies on the simulated chip.
	Executor = executor.Executor
)

// Lab runs the Fig. 1 pipeline (model building, measurement) on a
// simulated chip, its ground truth and its offline calibration.
type Lab = pipeline.Lab

// DefaultChip returns the reference simulated accelerator.
func DefaultChip() *Chip { return npu.Default() }

// AscendVFCurve returns the reference voltage-frequency curve of
// Fig. 9: 1000-1800 MHz in 100 MHz steps with a 1300 MHz knee.
func AscendVFCurve() *VFCurve { return vf.Ascend() }

// NewLab returns the reference laboratory configuration with seeded
// determinism.
func NewLab() *Lab { return pipeline.NewLab() }

// NewLabFor builds a laboratory around a custom accelerator
// configuration — the porting path of Sect. 8.3.
func NewLabFor(chip *Chip, ground *GroundTruthPower, th ThermalParams, seed int64) *Lab {
	return pipeline.NewLabFor(chip, ground, th, seed)
}

// WorkloadByName returns a workload from the registry (gpt3, bert,
// resnet50, resnet152, vgg19, vit, deit, shufflenetv2plus,
// llama2-inference, mixtral-moe). The result is the caller's own copy:
// editing its trace before optimizing it is a legitimate use of the
// library, and the registry's model is shared by every internal caller.
func WorkloadByName(name string) (*Workload, error) { return workload.Build(name) }

// WorkloadNames lists the registered workloads.
func WorkloadNames() []string { return workload.Names() }

// NewProfiler returns a profiler with realistic measurement noise.
func NewProfiler(chip *Chip, seed int64) *Profiler { return profiler.New(chip, seed) }

// FitPerfModel fits Func. 2 from measured (frequency, duration)
// pairs; two pairs solve it exactly (Sect. 4.3).
func FitPerfModel(freqMHz []MHz, micros []Micros) (PerfModel, error) {
	return perfmodel.FitFunc2(freqMHz, micros)
}

// GenerateStrategy runs classification, preprocessing and the genetic
// search of Sect. 6 and returns the strategy. The genetic search
// observes cancellation at generation boundaries, so a timed-out
// request stops burning CPU within milliseconds; the returned error
// then wraps ctx.Err().
func GenerateStrategy(ctx context.Context, in StrategyInput, cfg StrategyConfig) (*Strategy, error) {
	strat, _, _, err := core.GenerateContext(ctx, in, cfg)
	return strat, err
}

// DefaultStrategyConfig returns the paper's production settings: 5 ms
// FAI, 2% loss target, population 200, 600 generations.
func DefaultStrategyConfig() StrategyConfig { return core.DefaultConfig() }

// DefaultExecutorOptions returns the Ascend configuration: 1 ms
// SetFreq latency with event synchronization.
func DefaultExecutorOptions() ExecutorOptions { return executor.DefaultOptions() }

// FixedStrategy pins the whole iteration to one frequency.
func FixedStrategy(f MHz) *Strategy { return executor.FixedStrategy(f) }

// NewExecutor returns an executor over the chip with its ground-truth
// power.
func NewExecutor(chip *Chip, ground *GroundTruthPower) *Executor {
	return executor.New(chip, ground)
}

// DefaultGroundTruth returns the calibrated ground-truth power for a
// chip.
func DefaultGroundTruth(chip *Chip) *GroundTruthPower { return powersim.Default(chip) }

// DefaultThermal returns the reference thermal constants.
func DefaultThermal() ThermalParams { return thermal.Default() }

// ThermalState is an evolving die temperature.
type ThermalState = thermal.State

// NewThermalState returns a state at ambient equilibrium.
func NewThermalState(p ThermalParams) *ThermalState { return thermal.NewState(p) }

// AdaptiveController closes the loop around a deployed strategy: it
// observes measured iteration durations and ratchets frequencies up
// when the realized loss exceeds the target.
type AdaptiveController = adaptive.Controller

// NewAdaptiveController wraps a strategy with the production feedback
// guard. baselineMicros is the measured baseline iteration duration
// and target the allowed relative loss.
func NewAdaptiveController(curve *VFCurve, s *Strategy, baselineMicros Micros, target float64) (*AdaptiveController, error) {
	return adaptive.New(curve, s, baselineMicros, target)
}

// SaveStrategy and LoadStrategy persist strategies as JSON.
func SaveStrategy(path string, s *Strategy) error { return traceio.SaveStrategy(path, s) }

// LoadStrategy reads a strategy written by SaveStrategy.
func LoadStrategy(path string) (*Strategy, error) { return traceio.LoadStrategy(path) }

// SaveWorkload and LoadWorkload persist operator traces as JSON.
func SaveWorkload(path string, m *Workload) error { return traceio.SaveWorkload(path, m) }

// LoadWorkload reads a trace written by SaveWorkload.
func LoadWorkload(path string) (*Workload, error) { return traceio.LoadWorkload(path) }

// Dual-domain (core + uncore) strategy generation — the Sect. 8.2
// future work implemented in internal/dualdvfs.
type (
	// DualConfig tunes the two-domain search.
	DualConfig = dualdvfs.Config
	// DualInput bundles its inputs.
	DualInput = dualdvfs.Input
)

// DefaultDualConfig mirrors the production settings with a
// conservative uncore candidate set.
func DefaultDualConfig() DualConfig { return dualdvfs.DefaultConfig() }

// GenerateDualStrategy searches (core frequency, uncore scale) pairs
// per stage, observing ctx like GenerateStrategy.
func GenerateDualStrategy(ctx context.Context, in DualInput, cfg DualConfig) (*Strategy, error) {
	strat, _, _, err := dualdvfs.GenerateContext(ctx, in, cfg)
	return strat, err
}

// CalibrateUncoreDyn measures the clock-proportional uncore idle power
// needed by the dual-domain search.
func CalibrateUncoreDyn(rig *PowerRig, probeScale float64, samples int) (float64, error) {
	return dualdvfs.CalibrateUncore(rig, probeScale, samples)
}

// PowerRig bundles the live system power calibration measures.
type PowerRig = powermodel.Rig

// Serving layer (DESIGN.md §8): dvfsd exposes the Fig. 1 pipeline over
// HTTP with a bounded worker pool and a strategy cache.
type (
	// Server is the dvfsd strategy service.
	Server = server.Server
	// ServerConfig sizes its worker pool, queue, cache and deadlines.
	ServerConfig = server.Config
	// Client talks to a running dvfsd.
	Client = client.Client
	// StrategyRequest is the POST /v1/strategies body.
	StrategyRequest = traceio.StrategyRequest
	// SearchSpec is its client-tunable search configuration.
	SearchSpec = traceio.SearchSpec
	// JobStatus is the job-polling response, carrying the strategy and
	// predicted deltas once done.
	JobStatus = traceio.JobStatus
	// ModelBundle is the serialized form of a workload's fitted
	// models, the warm-start artifact of dvfsd -load-models.
	ModelBundle = traceio.ModelBundle
)

// NewServer starts the service's worker pool; expose it with
// (*Server).Handler and stop it with (*Server).Shutdown. It errors on
// an inconsistent cluster configuration (a node ID absent from the
// ring).
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client { return client.New(baseURL) }

// FingerprintTrace returns the canonical trace digest the strategy
// cache is keyed by.
func FingerprintTrace(trace []OpSpec) string { return traceio.Fingerprint(trace) }

// SaveModels and LoadModels persist fitted perf/power models; a loaded
// bundle skips calibration and profiling (Lab.ModelsFromBundle).
func SaveModels(path string, b *ModelBundle) error { return traceio.SaveModels(path, b) }

// LoadModels reads a bundle written by SaveModels.
func LoadModels(path string) (*ModelBundle, error) { return traceio.LoadModels(path) }
