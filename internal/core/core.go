// Package core implements the paper's primary contribution: DVFS
// strategy generation for millisecond-scale, operator-level frequency
// control (Sect. 6, Fig. 1).
//
// Given a baseline profile of one workload iteration, per-operator
// performance models (Sect. 4) and the power model (Sect. 5), the
// generator classifies operators by bottleneck, splits the iteration
// into LFC/HFC candidate stages merged by the frequency adjustment
// interval, and searches the per-stage frequency assignment with a
// genetic algorithm. Individuals are scored entirely from the models —
// the property that lets the search evaluate tens of thousands of
// strategies in minutes instead of one training round each
// (Sect. 8.1).
//
// The fitness function reconstructs Eq. 17: with Per the predicted
// performance (reciprocal iteration time), Per_base the baseline
// performance and Power the predicted mean SoC power,
//
//	Score = 2·Per_base²/Power                  if Per ≥ Per_lb
//	Score = (Per/Per_lb)²·Per_base²/Power      otherwise (penalized)
//
// Compliant individuals are ranked purely by power, so the search
// drives power as low as the performance bound allows — which is why
// looser loss targets yield monotonically larger savings (Table 3) and
// solutions sit near the bound. Violating individuals are scored at
// less than half the compliant value and pushed back toward
// feasibility by the quadratic penalty.
package core

import (
	"context"
	"fmt"
	"slices"

	"npudvfs/internal/classify"
	"npudvfs/internal/evaltab"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/units"
)

// FreqPoint is one frequency-change instruction of a strategy.
type FreqPoint struct {
	// OpIndex is the trace index at which the new frequency must be
	// in effect (the start of a stage).
	OpIndex int
	// TimeMicros is the switch point on the baseline timeline.
	TimeMicros units.Micros
	// FreqMHz is the core frequency to set.
	FreqMHz units.MHz
}

// Strategy is a generated DVFS policy for one workload iteration.
// Because long-lived AI workloads repeat the same operator sequence
// every iteration, the strategy applies to all subsequent iterations.
type Strategy struct {
	// Points holds the frequency changes in trace order. The first
	// point is at operator 0 (initial frequency).
	Points []FreqPoint
	// BaselineMHz is the reference frequency the strategy was
	// generated against.
	BaselineMHz units.MHz
}

// FreqAt returns the frequency the strategy prescribes for a trace
// index.
func (s *Strategy) FreqAt(opIndex int) units.MHz {
	f := s.BaselineMHz
	for _, p := range s.Points {
		if p.OpIndex > opIndex {
			break
		}
		f = p.FreqMHz
	}
	return f
}

// Switches returns how many SetFreq operations the strategy triggers
// per iteration (core frequency changes after the initial point).
func (s *Strategy) Switches() int {
	n := 0
	for i := 1; i < len(s.Points); i++ {
		if !stats.Approx(s.Points[i].FreqMHz, s.Points[i-1].FreqMHz) {
			n++
		}
	}
	return n
}

// Config tunes strategy generation.
type Config struct {
	// FAIMicros is the frequency adjustment interval used for
	// candidate merging (the paper uses 5 ms).
	FAIMicros units.Micros
	// PerfLossTarget is the allowed relative performance loss, e.g.
	// 0.02 for the paper's production setting.
	PerfLossTarget float64
	// GA configures the genetic search.
	GA ga.Config
	// Guard shrinks the loss target used internally to absorb model
	// and actuation error, so measured loss lands under the target.
	// The paper's measured losses run at 80-90% of each target
	// (Table 3), consistent with such a guard band. 0 means no guard
	// (treated as 1).
	Guard float64
}

// DefaultConfig returns the paper's production settings: 5 ms FAI, 2%
// performance loss target, population 200, 600 generations, mutation
// 0.15. The prior individual's LFC frequency is the chip's
// vf.Plan.PriorLFC (1600 MHz on Ascend).
func DefaultConfig() Config {
	return Config{
		FAIMicros:      5000,
		PerfLossTarget: 0.02,
		GA:             ga.DefaultConfig(),
		Guard:          0.5,
	}
}

// Input bundles everything strategy generation consumes.
type Input struct {
	Chip *npu.Chip
	// Profile is the baseline-frequency profile of one iteration
	// (normally at the maximum frequency).
	Profile *profiler.Profile
	// Perf maps operator keys to fitted performance models. Operators
	// without a model (e.g. excluded sub-20 µs ones) fall back to
	// their measured baseline duration.
	Perf map[string]perfmodel.Model
	// Power is the constructed power model.
	Power *powermodel.Model
}

// Prediction summarizes the model-predicted behaviour of an
// assignment.
type Prediction struct {
	TimeMicros units.Micros
	SoCWatts   units.Watt
	CoreWatts  units.Watt
	DeltaT     units.Celsius
}

// problem is the ga.Problem for stage-frequency assignment. All
// per-stage, per-frequency quantities are precomputed into a flat
// structure-of-arrays table (evaltab) so Score is a cheap contiguous
// accumulation, making the 200x600 search run in seconds.
type problem struct {
	grid   []units.MHz
	stages []preprocess.Stage
	// Table holds the per-(stage, grid index) quadruples — predicted
	// duration, SoC/AICore energies excluding the temperature term,
	// ∫V dt — plus the Eq. 17 scoring parameters. Embedded: its
	// Alleles, Score and partial-sum methods are the problem's
	// ga.PartialScorer (and ga.BatchScorer) implementation, so the
	// engine scores crossover and mutation children by O(changed
	// genes) delta updates. Safe for concurrent use: the table is
	// read-only after buildProblem.
	*evaltab.Table

	baselineIdx int // grid index of the baseline frequency
	priorIdx    int // grid index of the prior LFC frequency

	// seeds is built once: the GA engine copies seed vectors into its
	// population, so repeat Engine.Run calls on a cached problem stay
	// allocation-free.
	seeds [][]int
}

func (p *problem) Genes() int { return len(p.stages) }

func (p *problem) Seeds() [][]int {
	if p.seeds == nil {
		baseline := make([]int, len(p.stages))
		prior := make([]int, len(p.stages))
		for i := range p.stages {
			baseline[i] = p.baselineIdx
			prior[i] = p.baselineIdx
			if !p.stages[i].Sensitive {
				prior[i] = p.priorIdx
			}
		}
		p.seeds = [][]int{baseline, prior}
	}
	return p.seeds
}

// predict computes iteration time, mean powers and the self-consistent
// temperature rise for an assignment. Over a fixed assignment the SoC
// power is affine in ΔT, so the fixed point is solved in closed form
// (powermodel.SolveDeltaTLinear) instead of iterating.
func (p *problem) predict(ind []int) Prediction {
	pr := p.Table.Predict(ind)
	return Prediction{
		TimeMicros: units.Micros(pr.TimeMicros),
		SoCWatts:   units.Watt(pr.SoCWatts),
		CoreWatts:  units.Watt(pr.CoreWatts),
		DeltaT:     units.Celsius(pr.DeltaTC),
	}
}

// GenerateContext runs the full strategy-generation pipeline of Fig. 1
// on a profiled iteration and returns the strategy, the stage list and
// the GA convergence result; see Search for what cancellation does.
// Callers that go on to predict or score (the server's response
// builder) use Search and keep its evaluator.
func GenerateContext(ctx context.Context, in Input, cfg Config) (*Strategy, []preprocess.Stage, *ga.Result, error) {
	ev, res, err := Search(ctx, in, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return ev.Strategy(res.Best), ev.Stages(), res, nil
}

// Search runs the pipeline of Fig. 1 — classification, candidate
// stages, evaluator tables, genetic search — and returns the evaluator
// the search scored on with the GA result: ev.Strategy(res.Best) is
// the generated strategy, ev.Stages() its stage list, and ev.Predict
// reports exactly what the search optimized without a second table
// build. The genetic search observes cancellation at generation
// boundaries, so a timed-out or abandoned request stops burning CPU
// within milliseconds; the steps before it run to completion. At the
// production 200×600 search those steps are about 5 % of the call
// (1.5 of 30 ms averaged over ResNet-50, BERT and GPT-3; DESIGN.md §10
// has the table). The returned error wraps ctx.Err() when the search
// was cancelled.
func Search(ctx context.Context, in Input, cfg Config) (*Evaluator, *ga.Result, error) {
	if err := validateInput(in); err != nil {
		return nil, nil, err
	}
	results := classify.Trace(in.Profile)
	stages, err := preprocess.Stages(in.Profile, results, float64(cfg.FAIMicros))
	if err != nil {
		return nil, nil, err
	}
	prob, err := buildProblem(in, cfg, stages)
	if err != nil {
		return nil, nil, err
	}
	res, err := ga.RunContext(ctx, prob, cfg.GA)
	if err != nil {
		return nil, nil, err
	}
	return &Evaluator{prob: prob}, res, nil
}

// Evaluator scores and predicts stage-frequency assignments without
// re-running the expensive precomputation: the model-based policy
// evaluation the paper credits for assessing 20,000 strategies within
// five minutes (Sect. 8.1).
type Evaluator struct {
	prob *problem
}

// NewEvaluator precomputes the per-stage tables for an input and stage
// list.
func NewEvaluator(in Input, cfg Config, stages []preprocess.Stage) (*Evaluator, error) {
	if err := validateInput(in); err != nil {
		return nil, err
	}
	prob, err := buildProblem(in, cfg, stages)
	if err != nil {
		return nil, err
	}
	return &Evaluator{prob: prob}, nil
}

// Score returns the Eq. 17 fitness of an assignment.
func (e *Evaluator) Score(ind []int) float64 { return e.prob.Score(ind) }

// Predict returns the model-predicted time, powers and ΔT of an
// assignment.
func (e *Evaluator) Predict(ind []int) (Prediction, error) {
	if len(ind) != e.prob.Genes() {
		return Prediction{}, fmt.Errorf("core: %d genes for %d stages", len(ind), e.prob.Genes())
	}
	return e.prob.predict(ind), nil
}

// Genes returns the number of stages (genes per individual).
func (e *Evaluator) Genes() int { return e.prob.Genes() }

// Stages returns the stage list the evaluator was built over, one
// stage per gene.
func (e *Evaluator) Stages() []preprocess.Stage { return e.prob.stages }

// Grid returns the frequency grid indexed by gene values.
func (e *Evaluator) Grid() []units.MHz { return e.prob.grid }

// BaselineIndex returns the gene value of the baseline frequency.
func (e *Evaluator) BaselineIndex() int { return e.prob.baselineIdx }

// PerLB returns the compliance bound the search scores under: the
// lowest performance (1/µs) an assignment may predict, the baseline's
// less the guarded loss target.
func (e *Evaluator) PerLB() float64 { return e.prob.PerLB }

// Problem exposes the evaluator's precomputed assignment problem as a
// ga.Problem (it also satisfies ga.PartialScorer, enabling the
// engine's incremental scoring). Useful for benchmarks and for callers
// that drive ga.RunContext directly against a prebuilt evaluator.
func (e *Evaluator) Problem() ga.Problem { return e.prob }

// Strategy converts an assignment into a deduplicated switch-point
// strategy.
func (e *Evaluator) Strategy(ind []int) *Strategy {
	return assignmentToStrategy(e.prob, ind)
}

// PredictAssignment exposes the model-based prediction for an explicit
// stage-frequency assignment; used by experiments to compare targets.
func PredictAssignment(in Input, cfg Config, stages []preprocess.Stage, ind []int) (Prediction, error) {
	ev, err := NewEvaluator(in, cfg, stages)
	if err != nil {
		return Prediction{}, err
	}
	return ev.Predict(ind)
}

func validateInput(in Input) error {
	switch {
	case in.Chip == nil:
		return fmt.Errorf("core: nil chip")
	case in.Profile == nil || in.Profile.Len() == 0:
		return fmt.Errorf("core: empty profile")
	case len(in.Profile.Ratios) != in.Profile.Len():
		return fmt.Errorf("core: profile carries no PMU ratios; want a timing run")
	case in.Power == nil:
		return fmt.Errorf("core: nil power model")
	case in.Perf == nil:
		return fmt.Errorf("core: nil performance models")
	}
	return nil
}

func buildProblem(in Input, cfg Config, stages []preprocess.Stage) (*problem, error) {
	grid := in.Chip.Curve.Grid()
	p := &problem{
		grid:        grid,
		stages:      stages,
		Table:       evaltab.New(len(stages), len(grid)),
		baselineIdx: len(grid) - 1,
	}
	p.Table.K = float64(in.Power.K)
	p.Table.TemperatureAware = in.Power.TemperatureAware
	if p.Table.TemperatureAware {
		p.Table.GammaCore = in.Power.AICore.Gamma
		p.Table.GammaSoC = in.Power.SoC.Gamma
	}
	prior := in.Chip.Curve.Plan().PriorLFC
	p.priorIdx = slices.IndexFunc(grid, func(f units.MHz) bool { return stats.Approx(f, prior) })
	// Fill the table operator by operator: the key, the fitted time
	// model and the power coefficients are looked up once per operator,
	// the voltage and idle power once per grid point. Every cell still
	// receives its operators in ascending trace order, so the sums do
	// not depend on the loop nesting.
	volts := make([]float64, len(grid))
	points := make([]powermodel.Point, len(grid))
	for gi, f := range grid {
		volts[gi] = float64(in.Chip.Curve.Voltage(f))
		points[gi] = in.Power.At(f, 0)
	}
	trace, durs := in.Profile.Trace, in.Profile.DurMicros
	for si, st := range stages {
		for i := st.OpStart; i < st.OpEnd; i++ {
			spec := &trace[i]
			key := spec.Key()
			var perf perfmodel.Model
			fitted := false
			if spec.Class == op.Compute {
				perf, fitted = in.Perf[key]
			}
			power, known := in.Power.Ops[key]
			measured := durs[i]
			for gi, f := range grid {
				dur := measured
				if fitted {
					dur = float64(perf.Micros(f))
				}
				core, soc := points[gi].OpPower(power, known)
				p.Table.Add(si, gi, dur, float64(soc)*dur, float64(core)*dur, volts[gi]*dur)
			}
		}
	}
	// Baseline performance and the compliance bound.
	baseline := make([]int, len(stages))
	for i := range baseline {
		baseline[i] = p.baselineIdx
	}
	basePred := p.predict(baseline)
	if basePred.TimeMicros <= 0 {
		return nil, fmt.Errorf("core: degenerate baseline prediction")
	}
	guard := cfg.Guard
	if guard <= 0 || guard > 1 {
		guard = 1
	}
	p.Table.PerBaseline = 1 / float64(basePred.TimeMicros)
	p.Table.PerLB = p.Table.PerBaseline * (1 - cfg.PerfLossTarget*guard)
	p.Seeds() // build the seed vectors now: the problem is immutable (and trivially concurrency-safe) once returned
	return p, nil
}

// assignmentToStrategy converts a per-stage frequency assignment into
// a deduplicated switch-point strategy.
func assignmentToStrategy(p *problem, ind []int) *Strategy {
	s := &Strategy{BaselineMHz: p.grid[p.baselineIdx]}
	last := units.MHz(-1)
	for si, g := range ind {
		f := p.grid[g]
		if stats.Approx(f, last) {
			continue
		}
		s.Points = append(s.Points, FreqPoint{
			OpIndex:    p.stages[si].OpStart,
			TimeMicros: units.Micros(p.stages[si].StartMicros),
			FreqMHz:    f,
		})
		last = f
	}
	return s
}
