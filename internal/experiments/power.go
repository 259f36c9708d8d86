package experiments

import (
	"fmt"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// Fig10Line is the equilibrium (SoC power, temperature) series of one
// operator across frequencies.
type Fig10Line struct {
	Operator string
	PowerW   []float64
	TempC    []float64
}

// Fig10Result reproduces Fig. 10: AICore temperature is linear in SoC
// power. Each line is a different operator swept across frequencies;
// the fitted slope is k of Eq. 15.
type Fig10Result struct {
	Lines      []Fig10Line
	FittedK    float64
	TrueK      float64
	InterceptC float64
}

// Fig10 warms single-operator workloads to equilibrium at several
// frequencies and regresses temperature against SoC power.
func (l *Harness) Fig10() (*Fig10Result, error) {
	res := &Fig10Result{TrueK: float64(l.Thermal.KCPerWatt)}
	subjects := []struct {
		name string
		m    *workload.Model
	}{
		{"SoftMax", workload.MicroOp(workload.SoftmaxOp(), 400)},
		{"Tanh", workload.MicroOp(workload.TanhOp(), 400)},
		{"Conv2D", workload.MicroOp(workload.RepresentativeOps()[3], 200)},
	}
	p := profiler.New(l.Chip, l.Seed+400)
	grid := l.Chip.Curve.Grid()
	var allP, allT []float64
	for _, sub := range subjects {
		line := Fig10Line{Operator: sub.name}
		for gi := 0; gi < len(grid); gi += 2 {
			th := thermal.NewState(l.Thermal)
			prof, err := p.WarmupIterations(sub.m.Trace, float64(grid[gi]), l.Ground, th, 6000, 0.3)
			if err != nil {
				return nil, err
			}
			line.PowerW = append(line.PowerW, prof.MeanSoCW())
			line.TempC = append(line.TempC, float64(th.TempC()))
			allP = append(allP, prof.MeanSoCW())
			allT = append(allT, float64(th.TempC()))
		}
		res.Lines = append(res.Lines, line)
	}
	t0, k, err := stats.LinFit(allP, allT)
	if err != nil {
		return nil, err
	}
	res.FittedK, res.InterceptC = k, t0
	return res, nil
}

func (r *Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 - temperature vs SoC power: T = %.1f + %.4f*P (true k = %.4f)\n",
		r.InterceptC, r.FittedK, r.TrueK)
	for _, line := range r.Lines {
		fmt.Fprintf(&b, "  %-10s", line.Operator)
		for i := range line.PowerW {
			fmt.Fprintf(&b, "  (%.0fW, %.1fC)", line.PowerW[i], line.TempC[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table2Entry is one workload/frequency power prediction.
type Table2Entry struct {
	Workload string
	MHz      float64
	PredW    float64
	MeasW    float64
	RelErr   float64
}

// Table2Result reproduces Table 2: the error distribution of SoC power
// predictions at held-out frequencies, with the γ=0 temperature
// ablation of Sect. 7.3.
type Table2Result struct {
	Entries []Table2Entry
	// BucketFrac holds fractions for (0,1%], (1,5%], (5,10%], (10%,inf).
	BucketFrac [4]float64
	MeanErr    float64
	// AblationMeanErr is the average error with the temperature term
	// disabled.
	AblationMeanErr float64
}

// table2Workloads returns the validation subjects of Sect. 7.3.
func table2Workloads() []*workload.Model {
	return []*workload.Model{
		workload.GPT3(),
		workload.BERT(),
		workload.VGG19(),
		workload.ResNet50(),
		workload.ViTBase(),
		workload.MicroOp(workload.SoftmaxOp(), 300),
		workload.MicroOp(workload.TanhOp(), 300),
	}
}

// predictMeanPower predicts the workload's thermally-settled mean SoC
// power at a uniform frequency using the full model stack.
func (l *Harness) predictMeanPower(ms *Models, fMHz units.MHz) (float64, error) {
	stage := []preprocess.Stage{{
		OpStart: 0, OpEnd: ms.Baseline.Len(),
		DurMicros: ms.Baseline.TotalMicros,
	}}
	ev, err := core.NewEvaluator(ms.Input(l.Chip), core.DefaultConfig(), stage)
	if err != nil {
		return 0, err
	}
	gi := -1
	for i, f := range ev.Grid() {
		if stats.Approx(f, fMHz) {
			gi = i
		}
	}
	if gi < 0 {
		return 0, fmt.Errorf("experiments: %g MHz not on the grid", float64(fMHz))
	}
	pred, err := ev.Predict([]int{gi})
	if err != nil {
		return 0, err
	}
	return float64(pred.SoCWatts), nil
}

// Table2 builds power models for each validation workload at the fit
// frequencies and compares predicted against measured mean SoC power
// at every held-out frequency.
func (l *Harness) Table2() (*Table2Result, error) {
	res := &Table2Result{}
	var errsAware, errsBlind []float64
	for _, m := range table2Workloads() {
		aware, err := l.BuildModels(m, true)
		if err != nil {
			return nil, err
		}
		// The ablation shares profiles and calibration; only the
		// online build differs.
		blindPower := *aware.Power
		blindPower.TemperatureAware = false
		blind := *aware
		blind.Power = &blindPower
		for _, f := range l.Chip.Curve.Plan().Eval {
			meas, err := l.MeasureFixed(m, f)
			if err != nil {
				return nil, err
			}
			pred, err := l.predictMeanPower(aware, f)
			if err != nil {
				return nil, err
			}
			relErr := stats.AbsRelError(pred, meas.MeanSoCW)
			res.Entries = append(res.Entries, Table2Entry{
				Workload: m.Name, MHz: float64(f), PredW: pred, MeasW: meas.MeanSoCW, RelErr: relErr,
			})
			errsAware = append(errsAware, relErr)
			predBlind, err := l.predictMeanPower(&blind, f)
			if err != nil {
				return nil, err
			}
			errsBlind = append(errsBlind, stats.AbsRelError(predBlind, meas.MeanSoCW))
		}
	}
	counts := stats.Bucket(errsAware, []float64{0.01, 0.05, 0.10})
	total := float64(len(errsAware))
	for i := 0; i < 4; i++ {
		res.BucketFrac[i] = float64(counts[i]) / total
	}
	res.MeanErr = stats.Mean(errsAware)
	res.AblationMeanErr = stats.Mean(errsBlind)
	return res, nil
}

func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2 - power-model prediction error distribution\n")
	fmt.Fprintf(&b, "  (0,1%%]: %.1f%%  (1,5%%]: %.1f%%  (5,10%%]: %.1f%%  (10%%,inf): %.1f%%  avg: %.2f%%\n",
		r.BucketFrac[0]*100, r.BucketFrac[1]*100, r.BucketFrac[2]*100, r.BucketFrac[3]*100, r.MeanErr*100)
	fmt.Fprintf(&b, "  temperature ablation (gamma=0) avg: %.2f%%\n", r.AblationMeanErr*100)
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-18s %5.0f MHz  pred %7.2f W  meas %7.2f W  err %5.2f%%\n",
			e.Workload, e.MHz, e.PredW, e.MeasW, e.RelErr*100)
	}
	return b.String()
}
