package experiments

import (
	"context"
	"fmt"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/pipeline"
)

// UncoreRow is one uncore-scale measurement on GPT-3.
type UncoreRow struct {
	// Scale is the uncore frequency relative to nominal.
	Scale float64
	// CoreDVFS marks rows where the fine-grained core strategy runs
	// on top of the scaled uncore.
	CoreDVFS      bool
	PerfLoss      float64
	SoCReduction  float64
	CoreReduction float64
}

// UncoreResult is the Sect. 8.2 what-if study: the paper notes that
// uncore components average ~80% of SoC power but are not
// frequency-tunable on the measured platform, capping overall savings;
// this experiment quantifies the additional headroom if they were.
type UncoreResult struct {
	Rows []UncoreRow
	// BestCombined is the largest compliant SoC reduction achieved by
	// combining the fine-grained core strategy with an uncore scale.
	BestCombined UncoreRow
	LossTarget   float64
}

// scaledLab builds a laboratory whose uncore runs at the given scale.
func (l *Harness) scaledLab(scale float64) *pipeline.Lab {
	chip := l.Chip.WithUncoreScale(scale)
	ground := *l.Ground
	ground.Chip = chip
	return pipeline.NewLabFor(chip, &ground, l.Thermal, l.Seed)
}

// UncoreDVFS sweeps uncore frequency scales on GPT-3, alone and
// combined with the fine-grained core strategy, against the stock
// baseline at maximum core and uncore frequency.
func (l *Harness) UncoreDVFS(ctx context.Context) (*UncoreResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	// The fine-grained core strategy, generated once on the stock
	// chip (re-deriving it per uncore scale would need per-scale
	// profiles; the near-optimal stock strategy suffices for the
	// headroom estimate).
	cfg := core.DefaultConfig()
	cfg.GA.Seed = 601
	strat, _, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	res := &UncoreResult{LossTarget: 0.025}
	res.BestCombined = UncoreRow{Scale: 1}
	for _, scale := range []float64{1.0, 0.95, 0.9, 0.85, 0.8} {
		lab2 := l.scaledLab(scale)
		fixed, err := lab2.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, UncoreRow{
			Scale:         scale,
			PerfLoss:      fixed.TimeMicros/base.TimeMicros - 1,
			SoCReduction:  1 - fixed.MeanSoCW/base.MeanSoCW,
			CoreReduction: 1 - fixed.MeanCoreW/base.MeanCoreW,
		})
		combined, err := lab2.MeasureStrategy(gpt.Workload, strat, executor.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row := UncoreRow{
			Scale:         scale,
			CoreDVFS:      true,
			PerfLoss:      combined.TimeMicros/base.TimeMicros - 1,
			SoCReduction:  1 - combined.MeanSoCW/base.MeanSoCW,
			CoreReduction: 1 - combined.MeanCoreW/base.MeanCoreW,
		}
		res.Rows = append(res.Rows, row)
		if row.PerfLoss <= res.LossTarget && row.SoCReduction > res.BestCombined.SoCReduction {
			res.BestCombined = row
		}
	}
	return res, nil
}

func (r *UncoreResult) String() string {
	var b strings.Builder
	b.WriteString("Sect. 8.2 what-if: uncore DVFS headroom on GPT-3\n")
	fmt.Fprintf(&b, "  %-7s %-9s %8s %8s %8s\n", "uncore", "core", "loss", "SoC-", "AICore-")
	for _, row := range r.Rows {
		mode := "1800MHz"
		if row.CoreDVFS {
			mode = "DVFS"
		}
		fmt.Fprintf(&b, "  %6.0f%% %-9s %7.2f%% %7.2f%% %7.2f%%\n",
			row.Scale*100, mode, row.PerfLoss*100, row.SoCReduction*100, row.CoreReduction*100)
	}
	fmt.Fprintf(&b, "  best compliant combined: uncore %.0f%% -> SoC -%.2f%% at %.2f%% loss\n",
		r.BestCombined.Scale*100, r.BestCombined.SoCReduction*100, r.BestCombined.PerfLoss*100)
	return b.String()
}
