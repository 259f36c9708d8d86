package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/pool"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// gpt3Models caches the expensive GPT-3 modeling pipeline across the
// end-to-end experiments.
func (l *Harness) gpt3Models() (*Models, error) {
	l.gptOnce.Do(func() {
		l.gptModels, l.gptErr = l.BuildModels(workload.GPT3(), true)
	})
	return l.gptModels, l.gptErr
}

// Table3Row is one end-to-end optimization result (Table 3).
type Table3Row struct {
	Model          string
	LossTarget     float64
	OrigIterSec    float64
	DVFSIterSec    float64
	PerfLoss       float64
	OrigSoCW       float64
	DVFSSoCW       float64
	SoCReduction   float64
	OrigCoreW      float64
	DVFSCoreW      float64
	CoreReduction  float64
	SetFreqPerIter int
	Stages         int
}

// Table3Result is the full end-to-end table.
type Table3Result struct {
	Rows []Table3Row
}

// table3Case optimizes one workload at one loss target and measures
// baseline and DVFS execution on the simulated hardware.
func (l *Harness) table3Case(ctx context.Context, ms *Models, target float64, gaSeed int64) (Table3Row, error) {
	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = target
	cfg.GA.Seed = gaSeed
	strat, stages, _, err := core.GenerateContext(ctx, ms.Input(l.Chip), cfg)
	if err != nil {
		return Table3Row{}, err
	}
	base, err := l.MeasureFixed(ms.Workload, l.Chip.Curve.Max())
	if err != nil {
		return Table3Row{}, err
	}
	dvfs, err := l.MeasureStrategy(ms.Workload, strat, executor.DefaultOptions())
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{
		Model:          ms.Workload.Name,
		LossTarget:     target,
		OrigIterSec:    base.TimeMicros / 1e6,
		DVFSIterSec:    dvfs.TimeMicros / 1e6,
		PerfLoss:       dvfs.TimeMicros/base.TimeMicros - 1,
		OrigSoCW:       base.MeanSoCW,
		DVFSSoCW:       dvfs.MeanSoCW,
		SoCReduction:   1 - dvfs.MeanSoCW/base.MeanSoCW,
		OrigCoreW:      base.MeanCoreW,
		DVFSCoreW:      dvfs.MeanCoreW,
		CoreReduction:  1 - dvfs.MeanCoreW/base.MeanCoreW,
		SetFreqPerIter: strat.Switches(),
		Stages:         len(stages),
	}, nil
}

// Table3 reproduces the end-to-end table: GPT-3 at loss targets 2-10%
// plus BERT, ResNet-50 and ResNet-152 at the production 2% target.
// Cases fan out over l.Parallel workers; every case's GA seed is fixed
// per case, so rows are identical at any worker count.
func (l *Harness) Table3(ctx context.Context) (*Table3Result, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	targets := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	extras := []*workload.Model{workload.BERT(), workload.ResNet50(), workload.ResNet152()}
	rows := make([]Table3Row, len(targets)+len(extras))
	err = pool.Each(ctx, l.Seed, len(rows), l.workers(), func(i int, _ *rand.Rand) error {
		if i < len(targets) {
			row, err := l.table3Case(ctx, gpt, targets[i], int64(100+i))
			if err != nil {
				return err
			}
			rows[i] = row
			return nil
		}
		j := i - len(targets)
		ms, err := l.BuildModels(extras[j], true)
		if err != nil {
			return err
		}
		row, err := l.table3Case(ctx, ms, 0.02, int64(200+j))
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Rows: rows}, nil
}

func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3 - end-to-end results\n")
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %7s %9s %9s %7s %9s %9s %7s %8s\n",
		"model", "target", "t_orig", "t_dvfs", "loss", "soc_orig", "soc_dvfs", "soc-",
		"core_orig", "core_dvfs", "core-", "setfreq")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %5.0f%% %8.3fs %8.3fs %6.2f%% %8.2fW %8.2fW %6.2f%% %8.2fW %8.2fW %6.2f%% %8d\n",
			row.Model, row.LossTarget*100, row.OrigIterSec, row.DVFSIterSec, row.PerfLoss*100,
			row.OrigSoCW, row.DVFSSoCW, row.SoCReduction*100,
			row.OrigCoreW, row.DVFSCoreW, row.CoreReduction*100, row.SetFreqPerIter)
	}
	return b.String()
}

// Fig17Series is the GA convergence history at one loss target.
type Fig17Series struct {
	LossTarget float64
	History    []float64
	SearchSec  float64
}

// Fig17Result reproduces the search-convergence figure.
type Fig17Result struct {
	Series []Fig17Series
}

// Fig17 runs the full 200x600 search at each loss target on GPT-3 and
// records the best score per generation.
func (l *Harness) Fig17(ctx context.Context) (*Fig17Result, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	res := &Fig17Result{}
	for i, target := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
		cfg := core.DefaultConfig()
		cfg.PerfLossTarget = target
		cfg.GA.Seed = int64(300 + i)
		sw := startStopwatch()
		_, _, gaRes, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig17Series{
			LossTarget: target,
			History:    gaRes.History,
			SearchSec:  sw.elapsed().Seconds(),
		})
	}
	return res, nil
}

// ConvergedAt returns the first generation whose score is within frac
// of the final score.
func (s *Fig17Series) ConvergedAt(frac float64) int {
	final := s.History[len(s.History)-1]
	for i, v := range s.History {
		if v >= final*(1-frac) {
			return i
		}
	}
	return len(s.History) - 1
}

func (r *Fig17Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 17 - GA convergence under performance lower bounds\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  target %2.0f%%: final score %.4g, converged(99%%) at gen %d\n",
			s.LossTarget*100, s.History[len(s.History)-1], s.ConvergedAt(0.01))
	}
	return b.String()
}

// Timing reports each target's search time, which varies from run to
// run.
func (r *Fig17Result) Timing() string {
	secs := make([]string, len(r.Series))
	for i, s := range r.Series {
		secs[i] = fmt.Sprintf("%.2f", s.SearchSec)
	}
	return "search " + strings.Join(secs, "/") + " s"
}

// Fig18Row is one comparative configuration on GPT-3 training.
type Fig18Row struct {
	Name          string
	PerfLoss      float64
	SoCReduction  float64
	CoreReduction float64
	SetFreq       int
}

// Fig18Result reproduces the millisecond-DVFS and FAI comparisons.
type Fig18Result struct {
	Rows []Fig18Row
}

// Fig18 compares the production configuration against a simulated
// V100-latency deployment (SetFreq delayed by 14 ms) and coarser
// frequency adjustment intervals (100 ms, 1 s).
func (l *Harness) Fig18(ctx context.Context) (*Fig18Result, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	base, err := l.MeasureFixed(gpt.Workload, l.Chip.Curve.Max())
	if err != nil {
		return nil, err
	}
	res := &Fig18Result{}
	run := func(name string, faiMicros units.Micros, opt executor.Options, seed int64) error {
		cfg := core.DefaultConfig()
		cfg.FAIMicros = faiMicros
		cfg.GA.Seed = seed
		strat, _, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
		if err != nil {
			return err
		}
		meas, err := l.MeasureStrategy(gpt.Workload, strat, opt)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, Fig18Row{
			Name:          name,
			PerfLoss:      meas.TimeMicros/base.TimeMicros - 1,
			SoCReduction:  1 - meas.MeanSoCW/base.MeanSoCW,
			CoreReduction: 1 - meas.MeanCoreW/base.MeanCoreW,
			SetFreq:       strat.Switches(),
		})
		return nil
	}
	nominal := executor.DefaultOptions()
	// The V100 comparison delays SetFreq deployment by 14 ms
	// (Sect. 7.4) with the actuation jitter of a platform lacking a
	// fast, stable frequency-control path.
	delayed := executor.Options{
		SetFreqLatencyMicros: 1000,
		ExtraDelayMicros:     14000,
		DelayJitterMicros:    10000,
		JitterSeed:           17,
		Sync:                 false,
	}
	if err := run("origin", 5000, nominal, 401); err != nil {
		return nil, err
	}
	if err := run("delay-14ms", 5000, delayed, 401); err != nil {
		return nil, err
	}
	if err := run("FAI-100ms", 100000, nominal, 402); err != nil {
		return nil, err
	}
	if err := run("FAI-1s", 1000000, nominal, 403); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *Fig18Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 18 - comparative experiments on GPT-3 training\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %8s %8s\n", "config", "loss", "soc-", "core-", "setfreq")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %7.2f%% %7.2f%% %7.2f%% %8d\n",
			row.Name, row.PerfLoss*100, row.SoCReduction*100, row.CoreReduction*100, row.SetFreq)
	}
	return b.String()
}

// InferenceResult reproduces the Sect. 8.4 host-bound inference
// experiment: lowering every operator to the V-F knee (1300 MHz on
// Ascend).
type InferenceResult struct {
	LowMHz        float64
	PerfLoss      float64
	SoCReduction  float64
	CoreReduction float64
	IdleFraction  float64
}

// Inference measures a Llama2 decode step at the maximum frequency vs
// the knee, below which the voltage no longer falls (1800 vs 1300 MHz
// on Ascend).
func (l *Harness) Inference() (*InferenceResult, error) {
	m := workload.Llama2Inference()
	c := l.Chip.Curve
	base, err := l.MeasureFixed(m, c.Max())
	if err != nil {
		return nil, err
	}
	low, err := l.MeasureFixed(m, c.Knee())
	if err != nil {
		return nil, err
	}
	idle := 0.0
	for i := range m.Trace {
		if !m.Trace[i].FrequencyScaled() {
			idle += l.Chip.Time(&m.Trace[i], float64(c.Max()))
		}
	}
	return &InferenceResult{
		LowMHz:        float64(c.Knee()),
		PerfLoss:      low.TimeMicros/base.TimeMicros - 1,
		SoCReduction:  1 - low.MeanSoCW/base.MeanSoCW,
		CoreReduction: 1 - low.MeanCoreW/base.MeanCoreW,
		IdleFraction:  idle / base.TimeMicros,
	}, nil
}

func (r *InferenceResult) String() string {
	return fmt.Sprintf(
		"Sect. 8.4 inference at %.0f MHz - loss %.2f%%, SoC -%.2f%%, AICore -%.2f%% (host/fixed fraction %.0f%%)\n",
		r.LowMHz, r.PerfLoss*100, r.SoCReduction*100, r.CoreReduction*100, r.IdleFraction*100)
}

// ThroughputResult quantifies the model-based scoring advantage of
// Sect. 8.1: how many candidate strategies per second the evaluator
// scores, versus one 11-second training round per candidate for a
// model-free search.
type ThroughputResult struct {
	Policies      int
	Seconds       float64
	PerEvalMicros float64
	// ModelFreeEquivalentSec is how long the same number of
	// evaluations would take at one training iteration each.
	ModelFreeEquivalentSec float64
}

// ScoringThroughput times policy evaluation on the GPT-3 problem. The
// evaluator comes from a quick search under the production settings;
// the evaluator tables do not depend on the GA configuration.
func (l *Harness) ScoringThroughput(ctx context.Context, policies int) (*ThroughputResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.GA = quickGA()
	ev, _, err := core.Search(ctx, gpt.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(9))
	ind := make([]int, ev.Genes())
	sw := startStopwatch()
	sink := 0.0
	for i := 0; i < policies; i++ {
		for j := range ind {
			ind[j] = rng.Intn(len(ev.Grid()))
		}
		sink += ev.Score(ind)
	}
	elapsed := sw.elapsed().Seconds()
	_ = sink
	iterSec := gpt.Baseline.TotalMicros / 1e6
	return &ThroughputResult{
		Policies:               policies,
		Seconds:                elapsed,
		PerEvalMicros:          elapsed / float64(policies) * 1e6,
		ModelFreeEquivalentSec: float64(policies) * iterSec,
	}, nil
}

func quickGA() ga.Config {
	c := core.DefaultConfig().GA
	c.PopSize = 10
	c.Generations = 2
	return c
}

func (r *ThroughputResult) String() string {
	return fmt.Sprintf("Sect. 8.1 scoring throughput - %d policies; model-free equivalent: %.0fs\n",
		r.Policies, r.ModelFreeEquivalentSec)
}

// Timing reports the scoring time, which varies from run to run.
func (r *ThroughputResult) Timing() string {
	return fmt.Sprintf("%.2fs, %.1f µs each", r.Seconds, r.PerEvalMicros)
}
