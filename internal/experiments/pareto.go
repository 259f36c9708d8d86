package experiments

import (
	"context"
	"fmt"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/plot"
)

// ParetoRow is one point of the loss/savings frontier.
type ParetoRow struct {
	LossTarget    float64
	PerfLoss      float64
	SoCReduction  float64
	CoreReduction float64
	// EnergyReduction is the SoC energy-per-iteration change (power
	// and time combined).
	EnergyReduction float64
	// EDP is the energy-delay product normalized to the baseline;
	// below 1 means the strategy wins on both axes combined.
	EDP float64
}

// ParetoResult traces the performance/energy trade-off frontier that
// Table 3 samples at five points, at finer granularity, and reports
// the energy-delay-product optimum. The paper observes diminishing
// returns past the 2% target; the frontier makes that knee visible.
type ParetoResult struct {
	Rows []ParetoRow
	// BestEDP is the row minimizing the energy-delay product.
	BestEDP ParetoRow
}

// Pareto sweeps loss targets on GPT-3.
func (l *Harness) Pareto(ctx context.Context) (*ParetoResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	res := &ParetoResult{BestEDP: ParetoRow{EDP: 1}}
	for i, target := range []float64{0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.16, 0.20} {
		cfg := core.DefaultConfig()
		cfg.PerfLossTarget = target
		cfg.GA.Seed = int64(860 + i)
		strat, _, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
		if err != nil {
			return nil, err
		}
		meas, err := l.MeasureStrategy(gpt.Workload, strat, executor.DefaultOptions())
		if err != nil {
			return nil, err
		}
		relT := meas.TimeMicros / base.TimeMicros
		relE := meas.EnergySoCJ / base.EnergySoCJ
		row := ParetoRow{
			LossTarget:      target,
			PerfLoss:        relT - 1,
			SoCReduction:    1 - meas.MeanSoCW/base.MeanSoCW,
			CoreReduction:   1 - meas.MeanCoreW/base.MeanCoreW,
			EnergyReduction: 1 - relE,
			EDP:             relE * relT,
		}
		res.Rows = append(res.Rows, row)
		if row.EDP < res.BestEDP.EDP {
			res.BestEDP = row
		}
	}
	return res, nil
}

func (r *ParetoResult) String() string {
	var b strings.Builder
	b.WriteString("Performance/energy frontier on GPT-3\n")
	fmt.Fprintf(&b, "  %7s %8s %8s %9s %9s %7s\n", "target", "loss", "SoC-", "AICore-", "energy-", "EDP")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6.0f%% %7.2f%% %7.2f%% %8.2f%% %8.2f%% %7.4f\n",
			row.LossTarget*100, row.PerfLoss*100, row.SoCReduction*100,
			row.CoreReduction*100, row.EnergyReduction*100, row.EDP)
	}
	fmt.Fprintf(&b, "  EDP optimum at the %.0f%% target (EDP %.4f, loss %.2f%%)\n",
		r.BestEDP.LossTarget*100, r.BestEDP.EDP, r.BestEDP.PerfLoss*100)
	return b.String()
}

// Chart renders the frontier.
func (r *ParetoResult) Chart() *plot.Chart {
	soc := plot.Series{Name: "SoC power reduction (%)"}
	core := plot.Series{Name: "AICore power reduction (%)"}
	energy := plot.Series{Name: "SoC energy reduction (%)"}
	for _, row := range r.Rows {
		x := row.PerfLoss * 100
		soc.X = append(soc.X, x)
		soc.Y = append(soc.Y, row.SoCReduction*100)
		core.X = append(core.X, x)
		core.Y = append(core.Y, row.CoreReduction*100)
		energy.X = append(energy.X, x)
		energy.Y = append(energy.Y, row.EnergyReduction*100)
	}
	return &plot.Chart{
		Title:  "Performance/energy frontier (GPT-3)",
		XLabel: "measured performance loss (%)",
		YLabel: "reduction (%)",
		Series: []plot.Series{core, soc, energy},
	}
}
