package experiments

import (
	"fmt"
	"strings"

	"npudvfs/internal/op"
	"npudvfs/internal/perfmodel"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/units"
	"npudvfs/internal/vf"
	"npudvfs/internal/workload"
)

// Fig3Row is one frequency point of Fig. 3: Ld/St throughput (Eq. 1)
// and cycle count at fixed transfer volume (Eq. 4).
type Fig3Row struct {
	MHz           float64
	ThroughputGBs float64
	Cycles        float64
}

// Fig3Result reproduces both panels of Fig. 3 for a transfer whose
// saturation frequency falls inside the DVFS window.
type Fig3Result struct {
	SaturationMHz float64
	Rows          []Fig3Row
}

// Fig3 sweeps the DVFS window in half-grid steps for a
// half-L2-resident load.
func (l *Harness) Fig3() *Fig3Result {
	const l2Hit = 0.55
	const volume = 4 << 20 // bytes
	res := &Fig3Result{SaturationMHz: l.Chip.SaturationMHz(l.Chip.CLoad, l2Hit)}
	spec := &op.Spec{
		Name: "fig3", Class: op.Compute, Scenario: op.PingPongFreeIndep,
		Blocks: 1, LoadBytes: volume, CoreCycles: 1, CorePipe: op.Vector, L2Hit: l2Hit,
	}
	c := l.Chip.Curve
	for f := float64(c.Min()); f <= float64(c.Max()); f += float64(c.Step()) / 2 {
		res.Rows = append(res.Rows, Fig3Row{
			MHz:           f,
			ThroughputGBs: l.Chip.Throughput(l.Chip.CLoad, l2Hit, f) / 1000,
			Cycles:        l.Chip.LdCycles(spec, f),
		})
	}
	return res
}

func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 - Ld throughput and cycles vs core frequency (f_s = %.0f MHz)\n", r.SaturationMHz)
	fmt.Fprintf(&b, "%8s %14s %12s\n", "MHz", "Tp (GB/s)", "Cycles")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.0f %14.1f %12.0f\n", row.MHz, row.ThroughputGBs, row.Cycles)
	}
	return b.String()
}

// Fig4Result reproduces Fig. 4(b): the convex piecewise-linear
// cycle-frequency curve of an operator whose Ld and St saturation
// points both land inside the DVFS window.
type Fig4Result struct {
	BreakpointsMHz []float64
	MHz            []float64
	Cycles         []float64
	SlopesPerSeg   []float64
}

// Fig4 evaluates the analytic white-box model of an engineered
// PingPong-free, independent-Ld/St operator.
func (l *Harness) Fig4() *Fig4Result {
	spec := &op.Spec{
		Name: "fig4", Class: op.Compute, Scenario: op.PingPongFreeIndep,
		Blocks: 4, LoadBytes: 4 << 20, StoreBytes: 3 << 20,
		CoreCycles: 2000, CorePipe: op.Vector, L2Hit: 0.55,
	}
	// A chip copy with a narrower store port separates the St
	// saturation point (≈1200 MHz) from the Ld one (≈1338 MHz), and
	// the smaller store volume makes the max(Cycle(Ld), Cycle(St))
	// term switch branches near 1780 MHz — the multi-breakpoint
	// example of Fig. 4.
	chip := *l.Chip
	chip.CStore = chip.BWUncore(spec.L2Hit) / (1200 * float64(chip.Cores))
	a := perfmodel.Analytic{Chip: &chip, Spec: spec}
	res := &Fig4Result{BreakpointsMHz: units.Floats(a.Breakpoints(l.Chip.Curve.Min(), l.Chip.Curve.Max(), 1))}
	var prev float64
	for f := 1000.0; f <= 1800; f += 25 {
		c := a.Cycles(units.MHz(f))
		res.MHz = append(res.MHz, f)
		res.Cycles = append(res.Cycles, c)
		if len(res.Cycles) > 1 {
			res.SlopesPerSeg = append(res.SlopesPerSeg, (c-prev)/25)
		}
		prev = c
	}
	return res
}

func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 - piecewise-linear cycle curve, breakpoints at %v MHz\n", r.BreakpointsMHz)
	fmt.Fprintf(&b, "%8s %12s\n", "MHz", "Cycles")
	for i := range r.MHz {
		fmt.Fprintf(&b, "%8.0f %12.0f\n", r.MHz[i], r.Cycles[i])
	}
	return b.String()
}

// Fig9Result is the voltage-frequency table of Fig. 9.
type Fig9Result struct {
	Points []vf.Point
}

// Fig9 reads the firmware V-F curve.
func (l *Harness) Fig9() *Fig9Result {
	return &Fig9Result{Points: l.Chip.Curve.Points()}
}

func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 9 - Voltage-Frequency curve\n")
	fmt.Fprintf(&b, "%8s %10s\n", "MHz", "Volts")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.0f %10.3f\n", p.MHz, p.Volts)
	}
	return b.String()
}

// FuncKind names the three candidate fitting functions of Sect. 4.3.
type FuncKind int

const (
	Func1 FuncKind = iota // T = (a·f² + b·f + c)/f
	Func2                 // T = a·f + c/f (production)
	Func3                 // T = (a·e^{b·f} + c)/f
)

func (k FuncKind) String() string {
	switch k {
	case Func1:
		return "Func1 (af²+bf+c)/f"
	case Func2:
		return "Func2 af+c/f"
	case Func3:
		return "Func3 (ae^bf+c)/f"
	}
	return "?"
}

// Fig15Result holds the per-function error populations behind the CDF
// of Fig. 15.
type Fig15Result struct {
	// Errors[k] lists relative errors of function k across all
	// evaluated operator instances and frequencies.
	Errors [3][]float64
	// Operators is the number of instances evaluated (>= 20 µs ones).
	Operators int
	// DataPoints is operators times evaluation frequencies.
	DataPoints int
	// MeanError[k] is the average relative error of function k.
	MeanError [3]float64
}

// threePointFit is the three-point fit plan used by Func. 1 and
// Func. 3 (Sect. 7.2: fits at 1000, 1400, 1800 MHz on Ascend): the
// performance-fit edges and the mid run.
func threePointFit(p vf.Plan) []units.MHz {
	return []units.MHz{p.PerfFit[0], p.Mid, p.PerfFit[1]}
}

// validationFreqs are the frequencies the performance-model figures
// profile at: the fit edges, then the interior validation points.
func validationFreqs(p vf.Plan) []units.MHz {
	return append(append([]units.MHz{}, p.PerfFit...), p.Eval...)
}

// MinModelMicros is the duration threshold below which operators are
// excluded from performance-model evaluation (Sect. 7.2: sub-20 µs
// operators are 58.3% of the population but 0.9% of time).
const MinModelMicros = 20.0

// Fig15 fits all three functions per operator instance across the
// seven evaluation models and accumulates prediction errors at the
// held-out frequencies. Func. 1 and Func. 3 fit three points (1000,
// 1400, 1800 MHz on Ascend); Func. 2 fits two (1000, 1800 MHz).
func (l *Harness) Fig15() (*Fig15Result, error) {
	res := &Fig15Result{}
	plan := l.Chip.Curve.Plan()
	threeFreqs := threePointFit(plan)
	allFreqs := validationFreqs(plan)
	maxF := float64(l.Chip.Curve.Max())
	for _, m := range workload.PerfEvalModels() {
		profiles, err := l.TimingProfiles(m, allFreqs)
		if err != nil {
			return nil, err
		}
		for _, s := range profiler.BuildInstanceSeries(profiles) {
			// Exclude short operators by their maximum-frequency
			// duration.
			if durAt(s, maxF) < MinModelMicros {
				continue
			}
			res.Operators++
			evalFs, evalTs, _ := perfmodel.SelectPoints(s, plan.Eval)

			if fs, ts, ok := perfmodel.SelectPoints(s, threeFreqs); ok {
				if m1, err := perfmodel.FitFunc1(fs, ts); err == nil {
					res.Errors[Func1] = append(res.Errors[Func1], perfmodel.Errors(m1, evalFs, evalTs)...)
				}
				if m3, err := perfmodel.FitFunc3(fs, ts); err == nil {
					res.Errors[Func3] = append(res.Errors[Func3], perfmodel.Errors(m3, evalFs, evalTs)...)
				}
			}
			if fs, ts, ok := perfmodel.SelectPoints(s, plan.PerfFit); ok {
				if m2, err := perfmodel.FitFunc2(fs, ts); err == nil {
					errs := perfmodel.Errors(m2, evalFs, evalTs)
					res.Errors[Func2] = append(res.Errors[Func2], errs...)
					res.DataPoints += len(errs)
				}
			}
		}
	}
	for k := 0; k < 3; k++ {
		res.MeanError[k] = stats.Mean(res.Errors[k])
	}
	return res, nil
}

func durAt(s *profiler.Series, f float64) float64 {
	for i, ff := range s.FreqMHz {
		if stats.Approx(ff, f) {
			return s.Micros[i]
		}
	}
	return 0
}

// CDF evaluates the error CDF of one function at the given thresholds.
func (r *Fig15Result) CDF(k FuncKind, thresholds []float64) []stats.CDFPoint {
	return stats.EmpiricalCDF(r.Errors[k], thresholds)
}

func (r *Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15 - performance-model error CDF (%d operators, %d data points)\n",
		r.Operators, r.DataPoints)
	thresholds := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50}
	fmt.Fprintf(&b, "%-22s %8s", "function", "mean")
	for _, th := range thresholds {
		fmt.Fprintf(&b, "  <=%3.0f%%", th*100)
	}
	b.WriteString("\n")
	for k := Func1; k <= Func3; k++ {
		fmt.Fprintf(&b, "%-22s %7.2f%%", k, r.MeanError[k]*100)
		for _, p := range r.CDF(k, thresholds) {
			fmt.Fprintf(&b, "  %5.1f%%", p.Fraction*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig16Row is one operator panel of Fig. 16.
type Fig16Row struct {
	Name    string
	MHz     []float64
	RealUs  []float64
	PredUs  [3][]float64
	MeanErr [3]float64
}

// Fig16Result covers the five representative operators.
type Fig16Result struct {
	Rows []Fig16Row
}

// Fig16 fits all three functions to each representative operator and
// reports predictions and error rates at the held-out frequencies.
func (l *Harness) Fig16() (*Fig16Result, error) {
	specs := workload.RepresentativeOps()
	m := &workload.Model{Name: "fig16", Trace: specs}
	plan := l.Chip.Curve.Plan()
	profiles, err := l.TimingProfiles(m, validationFreqs(plan))
	if err != nil {
		return nil, err
	}
	res := &Fig16Result{}
	threeFreqs := threePointFit(plan)
	for _, s := range profiler.BuildInstanceSeries(profiles) {
		row := Fig16Row{Name: s.Spec.Name}
		evalFs, evalTs, _ := perfmodel.SelectPoints(s, plan.Eval)
		row.MHz, row.RealUs = units.Floats(evalFs), units.Floats(evalTs)
		fs3, ts3, _ := perfmodel.SelectPoints(s, threeFreqs)
		fs2, ts2, _ := perfmodel.SelectPoints(s, plan.PerfFit)
		if m1, err := perfmodel.FitFunc1(fs3, ts3); err == nil {
			row.PredUs[Func1] = predictAll(m1, evalFs)
			row.MeanErr[Func1] = stats.Mean(perfmodel.Errors(m1, evalFs, evalTs))
		}
		if m2, err := perfmodel.FitFunc2(fs2, ts2); err == nil {
			row.PredUs[Func2] = predictAll(m2, evalFs)
			row.MeanErr[Func2] = stats.Mean(perfmodel.Errors(m2, evalFs, evalTs))
		}
		if m3, err := perfmodel.FitFunc3(fs3, ts3); err == nil {
			row.PredUs[Func3] = predictAll(m3, evalFs)
			row.MeanErr[Func3] = stats.Mean(perfmodel.Errors(m3, evalFs, evalTs))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func predictAll(m perfmodel.TimeModel, fs []units.MHz) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = float64(m.Micros(f))
	}
	return out
}

func (r *Fig16Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 16 - predictions for five representative operators\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s: mean errors Func1=%.2f%% Func2=%.2f%% Func3=%.2f%%\n",
			row.Name, row.MeanErr[Func1]*100, row.MeanErr[Func2]*100, row.MeanErr[Func3]*100)
		fmt.Fprintf(&b, "  %8s %10s %10s %10s %10s\n", "MHz", "real", "Func1", "Func2", "Func3")
		for i := range row.MHz {
			fmt.Fprintf(&b, "  %8.0f %10.2f %10.2f %10.2f %10.2f\n",
				row.MHz[i], row.RealUs[i], row.PredUs[Func1][i], row.PredUs[Func2][i], row.PredUs[Func3][i])
		}
	}
	return b.String()
}

// FitCostResult reproduces the Sect. 4.3 fit-cost comparison: the
// direct solution of Func. 2 versus iterative curve fitting of Func. 1
// across all operator instances of ShuffleNetV2Plus.
type FitCostResult struct {
	Operators   int
	Func2Millis float64
	Func1Millis float64
	Speedup     float64
}

// FitCost times both fitting paths over the ShuffleNetV2Plus instance
// series.
func (l *Harness) FitCost() (*FitCostResult, error) {
	m := workload.ShuffleNetV2Plus()
	plan := l.Chip.Curve.Plan()
	threeFreqs := threePointFit(plan)
	profiles, err := l.TimingProfiles(m, threeFreqs)
	if err != nil {
		return nil, err
	}
	series := profiler.BuildInstanceSeries(profiles)
	res := &FitCostResult{Operators: len(series)}

	sw := startStopwatch()
	for _, s := range series {
		if fs, ts, ok := perfmodel.SelectPoints(s, plan.PerfFit); ok {
			if _, err := perfmodel.FitFunc2(fs, ts); err != nil {
				return nil, err
			}
		}
	}
	res.Func2Millis = float64(sw.elapsed().Microseconds()) / 1000

	sw = startStopwatch()
	for _, s := range series {
		if fs, ts, ok := perfmodel.SelectPoints(s, threeFreqs); ok {
			if _, err := perfmodel.FitFunc1Iterative(fs, ts); err != nil {
				return nil, err
			}
		}
	}
	res.Func1Millis = float64(sw.elapsed().Microseconds()) / 1000
	if res.Func2Millis > 0 {
		res.Speedup = res.Func1Millis / res.Func2Millis
	}
	return res, nil
}

func (r *FitCostResult) String() string {
	return fmt.Sprintf("Sect. 4.3 fit cost - %d operators fitted by Func2 (direct) and Func1 (iterative)\n", r.Operators)
}

// Timing reports the two fit times, which vary from run to run.
func (r *FitCostResult) Timing() string {
	return fmt.Sprintf("Func2 %.1f ms, Func1 %.1f ms, %.0fx", r.Func2Millis, r.Func1Millis, r.Speedup)
}
