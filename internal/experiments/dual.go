package experiments

import (
	"context"
	"fmt"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/dualdvfs"
	"npudvfs/internal/executor"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
)

// DualResult compares joint core+uncore strategy generation (the
// Sect. 8.2 future work, implemented in internal/dualdvfs) against the
// identical machinery restricted to the core domain.
type DualResult struct {
	LossTarget float64
	// UncoreDynW is the calibrated clock-proportional uncore idle
	// power.
	UncoreDynW float64
	// CoreOnly and Dual are measured against the fixed-max baseline.
	CoreOnlyLoss, CoreOnlySoC, CoreOnlyCore float64
	DualLoss, DualSoC, DualCore             float64
	DualUncoreSwitches                      int
}

// DualDomain runs both searches on GPT-3 at a 4% loss target (2%
// leaves little room for the extra knob) and measures the strategies.
func (l *Harness) DualDomain(ctx context.Context) (*DualResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	rig := &powermodel.Rig{
		Chip:    l.Chip,
		Ground:  l.Ground,
		Sensor:  powersim.NewSensor(l.Seed + 900),
		Thermal: l.Thermal,
	}
	dyn, err := dualdvfs.CalibrateUncore(rig, 0.8, 64)
	if err != nil {
		return nil, err
	}
	in := dualdvfs.Input{
		Chip:       l.Chip,
		Profile:    gpt.Baseline,
		Power:      gpt.Power,
		UncoreDynW: dyn,
	}
	cfg := dualdvfs.DefaultConfig()
	cfg.PerfLossTarget = 0.04
	cfg.GA.Seed = 801
	dualStrat, _, _, err := dualdvfs.GenerateContext(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	coreCfg := cfg
	coreCfg.UncoreScales = []float64{1.0}
	coreCfg.GA.Seed = 802
	coreStrat, _, _, err := dualdvfs.GenerateContext(ctx, in, coreCfg)
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	measure := func(s *core.Strategy) (*executor.Result, error) {
		return l.MeasureStrategy(gpt.Workload, s, executor.DefaultOptions())
	}
	dual, err := measure(dualStrat)
	if err != nil {
		return nil, err
	}
	coreOnly, err := measure(coreStrat)
	if err != nil {
		return nil, err
	}
	return &DualResult{
		LossTarget:         cfg.PerfLossTarget,
		UncoreDynW:         dyn,
		CoreOnlyLoss:       coreOnly.TimeMicros/base.TimeMicros - 1,
		CoreOnlySoC:        1 - coreOnly.MeanSoCW/base.MeanSoCW,
		CoreOnlyCore:       1 - coreOnly.MeanCoreW/base.MeanCoreW,
		DualLoss:           dual.TimeMicros/base.TimeMicros - 1,
		DualSoC:            1 - dual.MeanSoCW/base.MeanSoCW,
		DualCore:           1 - dual.MeanCoreW/base.MeanCoreW,
		DualUncoreSwitches: dualStrat.UncoreSwitches(),
	}, nil
}

func (r *DualResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sect. 8.2 joint core+uncore DVFS on GPT-3 (%.0f%% target, uncore dyn %.1f W)\n",
		r.LossTarget*100, r.UncoreDynW)
	fmt.Fprintf(&b, "  core-only: loss %5.2f%%  SoC -%5.2f%%  AICore -%6.2f%%\n",
		r.CoreOnlyLoss*100, r.CoreOnlySoC*100, r.CoreOnlyCore*100)
	fmt.Fprintf(&b, "  dual:      loss %5.2f%%  SoC -%5.2f%%  AICore -%6.2f%%  (%d uncore switches)\n",
		r.DualLoss*100, r.DualSoC*100, r.DualCore*100, r.DualUncoreSwitches)
	return b.String()
}
