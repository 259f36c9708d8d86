package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/pool"
	"npudvfs/internal/units"
)

// FAISweepRow is one frequency-adjustment-interval measurement.
type FAISweepRow struct {
	FAIMillis     float64
	Stages        int
	SetFreq       int
	PerfLoss      float64
	SoCReduction  float64
	CoreReduction float64
}

// FAISweepResult extends the Fig. 18 FAI comparison to a full curve:
// savings versus control granularity, the quantitative version of the
// paper's "with a larger frequency adjustment interval ... many
// opportunities to reduce energy consumption are missed".
type FAISweepResult struct {
	Rows []FAISweepRow
}

// FAISweep generates and measures GPT-3 strategies across adjustment
// intervals from 5 ms to 1 s.
func (l *Harness) FAISweep(ctx context.Context) (*FAISweepResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	fais := []units.Millis{5, 10, 20, 50, 100, 250, 500, 1000}
	rows := make([]FAISweepRow, len(fais))
	err = pool.Each(ctx, l.Seed, len(fais), l.workers(), func(i int, _ *rand.Rand) error {
		cfg := core.DefaultConfig()
		cfg.FAIMicros = fais[i].Micros()
		cfg.GA.Seed = int64(820 + i)
		strat, stages, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
		if err != nil {
			return err
		}
		meas, err := l.MeasureStrategy(gpt.Workload, strat, executor.DefaultOptions())
		if err != nil {
			return err
		}
		rows[i] = FAISweepRow{
			FAIMillis:     float64(fais[i]),
			Stages:        len(stages),
			SetFreq:       strat.Switches(),
			PerfLoss:      meas.TimeMicros/base.TimeMicros - 1,
			SoCReduction:  1 - meas.MeanSoCW/base.MeanSoCW,
			CoreReduction: 1 - meas.MeanCoreW/base.MeanCoreW,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FAISweepResult{Rows: rows}, nil
}

func (r *FAISweepResult) String() string {
	var b strings.Builder
	b.WriteString("FAI sweep on GPT-3 (2% loss target)\n")
	fmt.Fprintf(&b, "  %8s %8s %8s %8s %8s %9s\n", "FAI", "stages", "SetFreq", "loss", "SoC-", "AICore-")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6.0fms %8d %8d %7.2f%% %7.2f%% %8.2f%%\n",
			row.FAIMillis, row.Stages, row.SetFreq,
			row.PerfLoss*100, row.SoCReduction*100, row.CoreReduction*100)
	}
	return b.String()
}

// SeedsRow summarizes one seed's end-to-end outcome.
type SeedsRow struct {
	Seed          int64
	PerfLoss      float64
	CoreReduction float64
}

// SeedsResult reports the run-to-run spread of the headline GPT-3
// result across GA seeds: the stochastic search must deliver stable
// savings for the production claim to hold.
type SeedsResult struct {
	Rows                    []SeedsRow
	MeanCoreRed, StdCoreRed float64
	MeanLoss                float64
}

// robustnessSeeds is how many GA seeds SeedsRobustness repeats the
// search with.
const robustnessSeeds = 5

// SeedsRobustness repeats the 2%-target GPT-3 optimization with five
// GA seeds.
func (l *Harness) SeedsRobustness(ctx context.Context) (*SeedsResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	rows := make([]SeedsRow, robustnessSeeds)
	err = pool.Each(ctx, l.Seed, robustnessSeeds, l.workers(), func(i int, _ *rand.Rand) error {
		cfg := core.DefaultConfig()
		cfg.GA.Seed = int64(1000 + 17*i)
		strat, _, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
		if err != nil {
			return err
		}
		meas, err := l.MeasureStrategy(gpt.Workload, strat, executor.DefaultOptions())
		if err != nil {
			return err
		}
		rows[i] = SeedsRow{
			Seed:          cfg.GA.Seed,
			PerfLoss:      meas.TimeMicros/base.TimeMicros - 1,
			CoreReduction: 1 - meas.MeanCoreW/base.MeanCoreW,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &SeedsResult{Rows: rows}
	var sum, sumSq, sumLoss float64
	for _, row := range res.Rows {
		sum += row.CoreReduction
		sumLoss += row.PerfLoss
	}
	res.MeanCoreRed = sum / float64(len(res.Rows))
	res.MeanLoss = sumLoss / float64(len(res.Rows))
	for _, row := range res.Rows {
		d := row.CoreReduction - res.MeanCoreRed
		sumSq += d * d
	}
	res.StdCoreRed = math.Sqrt(sumSq / float64(len(res.Rows)))
	return res, nil
}

func (r *SeedsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GA seed robustness on GPT-3 (2%% target, %d seeds)\n", len(r.Rows))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  seed %4d: loss %5.2f%%  AICore -%5.2f%%\n",
			row.Seed, row.PerfLoss*100, row.CoreReduction*100)
	}
	fmt.Fprintf(&b, "  AICore reduction %.2f%% ± %.2f%%, mean loss %.2f%%\n",
		r.MeanCoreRed*100, r.StdCoreRed*100, r.MeanLoss*100)
	return b.String()
}
