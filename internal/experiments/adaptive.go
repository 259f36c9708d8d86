package experiments

import (
	"context"
	"fmt"
	"strings"

	"npudvfs/internal/adaptive"
	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// AdaptiveIter is one closed-loop iteration record.
type AdaptiveIter struct {
	Iteration  int
	LossPct    float64
	CoreRedPct float64
	Adjustment string
}

// AdaptiveResult demonstrates the production guard: a strategy
// generated without a guard band (Guard = 1) typically overshoots its
// loss target on hardware; the feedback controller ratchets it back
// under the target within a few iterations while preserving most of
// the savings.
type AdaptiveResult struct {
	Target      float64
	Iters       []AdaptiveIter
	Adjustments int
	FinalLoss   float64
	FinalSaving float64
}

// Adaptive runs the closed loop on BERT.
func (l *Harness) Adaptive(ctx context.Context) (*AdaptiveResult, error) {
	m := workload.BERT()
	ms, err := l.BuildModels(m, true)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Guard = 1 // no safety margin: rely on the controller instead
	cfg.GA.Seed = 701
	strat, _, _, err := core.GenerateContext(ctx, ms.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(m, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	ctl, err := adaptive.New(l.Chip.Curve, strat, units.Micros(base.TimeMicros), cfg.PerfLossTarget)
	if err != nil {
		return nil, err
	}
	ex := executor.New(l.Chip, l.Ground)
	th := thermal.NewState(l.Thermal)
	th.SetTemp(units.Celsius(base.EndTempC))
	res := &AdaptiveResult{Target: cfg.PerfLossTarget}
	for i := 0; i < 25; i++ {
		meas, err := ex.Run(m.Trace, ctl.Strategy(), th, executor.DefaultOptions())
		if err != nil {
			return nil, err
		}
		loss := meas.TimeMicros/base.TimeMicros - 1
		adj := ctl.Observe(units.Micros(meas.TimeMicros))
		res.Iters = append(res.Iters, AdaptiveIter{
			Iteration:  i,
			LossPct:    loss * 100,
			CoreRedPct: (1 - meas.MeanCoreW/base.MeanCoreW) * 100,
			Adjustment: adj.String(),
		})
		res.FinalLoss = loss
		res.FinalSaving = 1 - meas.MeanCoreW/base.MeanCoreW
	}
	res.Adjustments = ctl.Adjustments()
	return res, nil
}

func (r *AdaptiveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Closed-loop guard on BERT (%.0f%% target, strategy generated without guard band)\n",
		r.Target*100)
	for _, it := range r.Iters {
		fmt.Fprintf(&b, "  iter %2d: loss %5.2f%%  AICore -%5.2f%%  [%s]\n",
			it.Iteration, it.LossPct, it.CoreRedPct, it.Adjustment)
	}
	fmt.Fprintf(&b, "  %d adjustments; final loss %.2f%% with AICore -%.2f%%\n",
		r.Adjustments, r.FinalLoss*100, r.FinalSaving*100)
	return b.String()
}
