package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/preprocess"
)

// SearchRow is one search algorithm's outcome.
type SearchRow struct {
	Algorithm     string
	Evaluations   int
	SearchSec     float64
	PerfLoss      float64
	CoreReduction float64
	SoCReduction  float64
}

// SearchAblationResult compares the paper's genetic algorithm against
// two natural alternatives on the identical evaluator and budget: a
// greedy marginal-descent pass (lower each stage while the predicted
// bound holds) and uniform random sampling. It answers the "why a GA?"
// question of Sect. 6.3.
type SearchAblationResult struct {
	LossTarget float64
	Rows       []SearchRow
}

// greedySearch lowers stage frequencies one grid step at a time,
// always taking the step with the best predicted power-saving per
// predicted time cost, until the bound binds.
func greedySearch(ev *core.Evaluator, stages []preprocess.Stage, perLB float64) ([]int, int) {
	grid := ev.Grid()
	ind := make([]int, ev.Genes())
	for i := range ind {
		ind[i] = len(grid) - 1
	}
	evals := 0
	predict := func(x []int) core.Prediction {
		evals++
		p, _ := ev.Predict(x)
		return p
	}
	cur := predict(ind)
	for {
		bestStage, bestScore := -1, 0.0
		var bestPred core.Prediction
		for s := range ind {
			if ind[s] == 0 {
				continue
			}
			ind[s]--
			p := predict(ind)
			ind[s]++
			if 1/float64(p.TimeMicros) < perLB {
				continue
			}
			dPower := float64(cur.SoCWatts - p.SoCWatts)
			dTime := float64(p.TimeMicros - cur.TimeMicros)
			if dPower <= 0 {
				continue
			}
			score := dPower / (dTime + 1) // +1µs regularizer for free moves
			if score > bestScore {
				bestStage, bestScore, bestPred = s, score, p
			}
		}
		if bestStage < 0 {
			break
		}
		ind[bestStage]--
		cur = bestPred
	}
	return ind, evals
}

// randomSearch draws budget uniform individuals and keeps the best
// compliant one.
func randomSearch(ev *core.Evaluator, budget int, seed int64) ([]int, int) {
	grid := ev.Grid()
	rng := rand.New(rand.NewSource(seed))
	best := make([]int, ev.Genes())
	for i := range best {
		best[i] = len(grid) - 1
	}
	bestScore := ev.Score(best)
	ind := make([]int, ev.Genes())
	for e := 0; e < budget; e++ {
		for i := range ind {
			ind[i] = rng.Intn(len(grid))
		}
		if s := ev.Score(ind); s > bestScore {
			bestScore = s
			copy(best, ind)
		}
	}
	return best, budget + 1
}

// SearchAblation runs all three searches on the GPT-3 problem at the
// 4% target and measures each winning strategy on the simulator.
func (l *Harness) SearchAblation(ctx context.Context) (*SearchAblationResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = 0.04
	cfg.GA.Seed = 911
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	res := &SearchAblationResult{LossTarget: cfg.PerfLossTarget}
	measure := func(name string, strat *core.Strategy, evals int, sec float64) error {
		meas, err := l.MeasureStrategy(gpt.Workload, strat, executor.DefaultOptions())
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, SearchRow{
			Algorithm:     name,
			Evaluations:   evals,
			SearchSec:     sec,
			PerfLoss:      meas.TimeMicros/base.TimeMicros - 1,
			CoreReduction: 1 - meas.MeanCoreW/base.MeanCoreW,
			SoCReduction:  1 - meas.MeanSoCW/base.MeanSoCW,
		})
		return nil
	}

	// Genetic algorithm (the paper's search).
	sw := startStopwatch()
	strat, stages, gaRes, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	if err := measure("genetic", strat, gaRes.Evaluations, sw.elapsed().Seconds()); err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(gpt.Input(l.Chip), cfg, stages)
	if err != nil {
		return nil, err
	}
	// The evaluator's internal bound mirrors core.GenerateContext's.
	guard := cfg.Guard
	if guard <= 0 || guard > 1 {
		guard = 1
	}
	baselineInd := make([]int, ev.Genes())
	for i := range baselineInd {
		baselineInd[i] = ev.BaselineIndex()
	}
	basePred, err := ev.Predict(baselineInd)
	if err != nil {
		return nil, err
	}
	perLB := (1 / float64(basePred.TimeMicros)) * (1 - cfg.PerfLossTarget*guard)

	sw = startStopwatch()
	greedyInd, greedyEvals := greedySearch(ev, stages, perLB)
	if err := measure("greedy", ev.Strategy(greedyInd), greedyEvals, sw.elapsed().Seconds()); err != nil {
		return nil, err
	}

	sw = startStopwatch()
	randInd, randEvals := randomSearch(ev, gaRes.Evaluations, 912)
	if err := measure("random", ev.Strategy(randInd), randEvals, sw.elapsed().Seconds()); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *SearchAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Search-algorithm ablation on GPT-3 (%.0f%% target)\n", r.LossTarget*100)
	fmt.Fprintf(&b, "  %-9s %9s %8s %8s %9s\n", "search", "evals", "loss", "SoC-", "AICore-")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s %9d %7.2f%% %7.2f%% %8.2f%%\n",
			row.Algorithm, row.Evaluations, row.PerfLoss*100, row.SoCReduction*100, row.CoreReduction*100)
	}
	return b.String()
}

// Timing reports each search's time, which varies from run to run.
func (r *SearchAblationResult) Timing() string {
	secs := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		secs[i] = fmt.Sprintf("%s %.2fs", row.Algorithm, row.SearchSec)
	}
	return strings.Join(secs, ", ")
}
