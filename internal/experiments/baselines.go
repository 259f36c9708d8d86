package experiments

import (
	"context"
	"fmt"
	"sync"

	"npudvfs/internal/classify"
	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// hardwareProblem scores individuals by actually executing them on the
// simulated NPU — the model-free alternative of Sect. 8.1. Each Score
// call costs one full training iteration of simulated hardware time.
type hardwareProblem struct {
	lab      *Lab
	workload *workload.Model
	// ex is shared across Score calls; Executor is safe for concurrent
	// Run as long as each call brings its own thermal.State.
	ex        *executor.Executor
	stages    []preprocess.Stage
	grid      []float64
	baseT     float64
	baseP     float64
	perLB     float64
	warmTempC float64

	mu sync.Mutex
	// hardwareMicros accumulates the simulated hardware time spent,
	// guarded by mu so Score may run from GA worker goroutines.
	hardwareMicros float64
}

func (p *hardwareProblem) Genes() int   { return len(p.stages) }
func (p *hardwareProblem) Alleles() int { return len(p.grid) }
func (p *hardwareProblem) Seeds() [][]int {
	baseline := make([]int, len(p.stages))
	for i := range baseline {
		baseline[i] = len(p.grid) - 1
	}
	return [][]int{baseline}
}

func (p *hardwareProblem) strategy(ind []int) *core.Strategy {
	s := &core.Strategy{BaselineMHz: units.MHz(p.grid[len(p.grid)-1])}
	last := -1.0
	for si, g := range ind {
		f := p.grid[g]
		if stats.Approx(f, last) {
			continue
		}
		s.Points = append(s.Points, core.FreqPoint{
			OpIndex:    p.stages[si].OpStart,
			TimeMicros: units.Micros(p.stages[si].StartMicros),
			FreqMHz:    units.MHz(f),
		})
		last = f
	}
	return s
}

// Score executes one iteration under the candidate strategy. Safe for
// concurrent use: the shared Executor tolerates concurrent Run, the
// thermal state is per-call, and the hardware-time tally is locked.
// The GA still runs it with Workers=1 because real hardware is a
// serial resource — exactly the model-free bottleneck — but the race
// stress test exercises it from many goroutines.
func (p *hardwareProblem) Score(ind []int) float64 {
	th := thermal.NewState(p.lab.Thermal)
	th.SetTemp(units.Celsius(p.warmTempC))
	res, err := p.ex.Run(p.workload.Trace, p.strategy(ind), th, executor.DefaultOptions())
	if err != nil {
		return 0
	}
	p.mu.Lock()
	p.hardwareMicros += res.TimeMicros
	p.mu.Unlock()
	per := 1 / res.TimeMicros
	perBase := 1 / p.baseT
	score := perBase * perBase / res.MeanSoCW
	if per >= p.perLB {
		return 2 * score
	}
	rel := per / p.perLB
	return score * rel * rel
}

// ModelFreeResult reproduces the Sect. 8.1 comparison: under an equal
// hardware-time budget, a model-free search evaluates a few dozen
// strategies while the model-based search evaluates tens of thousands.
type ModelFreeResult struct {
	// Budget is the hardware-time budget in seconds (the paper uses 5
	// minutes).
	BudgetSec float64
	// ModelFree and ModelBased report the AICore reduction attained
	// within the budget, at <= the loss target.
	ModelFreeEvals    int
	ModelFreeCoreRed  float64
	ModelFreeLoss     float64
	ModelBasedEvals   int
	ModelBasedCoreRed float64
	ModelBasedLoss    float64
}

// modelFreeBudgetSec is the hardware-time budget of the Sect. 8.1
// comparison: the paper's five minutes.
const modelFreeBudgetSec = 300

// ModelFree runs both searches on GPT-3 under a fixed simulated
// hardware-time budget: with ~12-second training iterations, the
// budget admits only a few dozen hardware evaluations (the paper
// counts 30 in five minutes), far too few for a thousand-gene search.
func (l *Harness) ModelFree(ctx context.Context) (*ModelFreeResult, error) {
	ms, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	m := ms.Workload
	base, err := l.MeasureFixed(m, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	results := classify.Trace(ms.Baseline)
	stages, err := preprocess.Stages(ms.Baseline, results, float64(core.DefaultConfig().FAIMicros))
	if err != nil {
		return nil, err
	}
	// How many hardware evaluations fit in the budget.
	iterSec := base.TimeMicros / 1e6
	evals := int(modelFreeBudgetSec / iterSec)
	if evals < 4 {
		evals = 4
	}
	hw := &hardwareProblem{
		lab:       l.Lab,
		workload:  m,
		ex:        executor.New(l.Chip, l.Ground),
		stages:    stages,
		grid:      units.Floats(l.Chip.Curve.Grid()),
		baseT:     base.TimeMicros,
		baseP:     base.MeanSoCW,
		perLB:     (1 / base.TimeMicros) * (1 - 0.02),
		warmTempC: base.EndTempC,
	}
	pop := 10
	gens := evals/pop - 1
	if gens < 1 {
		gens = 1
	}
	// Score is impure: every evaluation must spend real (simulated)
	// hardware time, the budget the whole comparison is about. The
	// engine scores a plain Problem with exactly one Score call per
	// counted evaluation.
	hwRes, err := ga.RunContext(ctx, hw, ga.Config{
		PopSize: pop, Generations: gens, MutationRate: 0.15,
		CrossoverRate: 0.7, Elitism: 1, Seed: 21, Workers: 1,
	})
	if err != nil {
		return nil, err
	}
	hwMeas, err := l.MeasureStrategy(m, hw.strategy(hwRes.Best), executor.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// The model-based search has the whole budget for CPU-side
	// evaluation; the paper's production 200x600 fits easily.
	cfg := core.DefaultConfig()
	cfg.GA.Seed = 22
	strat, _, gaRes, err := core.GenerateContext(ctx, ms.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	mbMeas, err := l.MeasureStrategy(m, strat, executor.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &ModelFreeResult{
		BudgetSec:         modelFreeBudgetSec,
		ModelFreeEvals:    hwRes.Evaluations,
		ModelFreeCoreRed:  1 - hwMeas.MeanCoreW/base.MeanCoreW,
		ModelFreeLoss:     hwMeas.TimeMicros/base.TimeMicros - 1,
		ModelBasedEvals:   gaRes.Evaluations,
		ModelBasedCoreRed: 1 - mbMeas.MeanCoreW/base.MeanCoreW,
		ModelBasedLoss:    mbMeas.TimeMicros/base.TimeMicros - 1,
	}, nil
}

func (r *ModelFreeResult) String() string {
	return fmt.Sprintf(
		"Sect. 8.1 model-free comparison (%.0fs hardware budget)\n"+
			"  model-free:  %6d evaluations, AICore -%5.2f%%, loss %5.2f%%\n"+
			"  model-based: %6d evaluations, AICore -%5.2f%%, loss %5.2f%%\n",
		r.BudgetSec,
		r.ModelFreeEvals, r.ModelFreeCoreRed*100, r.ModelFreeLoss*100,
		r.ModelBasedEvals, r.ModelBasedCoreRed*100, r.ModelBasedLoss*100)
}
