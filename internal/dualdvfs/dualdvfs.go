// Package dualdvfs implements the paper's stated future work
// (Sect. 8.2): joint core + uncore DVFS strategy generation. The
// measured Ascend platform can only tune the AICore domain, capping
// SoC savings because the uncore (HBM, L2, bus) averages ~80% of chip
// power; this package extends the search space so every candidate
// stage carries a (core frequency, uncore scale) pair.
//
// Because per-operator fitted models only exist for the stock uncore,
// stage timing under a scaled uncore is predicted with the white-box
// analytical model of Sect. 4.2 (the operator timeline equations
// evaluated on a bandwidth-scaled chip) — the derivation route the
// paper notes as an alternative to fitting. Power under a scaled
// uncore uses the stock power model minus the calibrated
// clock-proportional share of uncore idle power.
package dualdvfs

import (
	"context"
	"fmt"
	"slices"

	"npudvfs/internal/classify"
	"npudvfs/internal/core"
	"npudvfs/internal/evaltab"
	"npudvfs/internal/ga"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/units"
)

// Config tunes two-domain strategy generation.
type Config struct {
	// UncoreScales are the candidate uncore frequencies relative to
	// nominal; 1.0 is added automatically if missing.
	UncoreScales []float64
	// FAIMicros, PerfLossTarget, Guard and GA mirror core.Config.
	FAIMicros      units.Micros
	PerfLossTarget float64
	Guard          float64
	GA             ga.Config
	// PriorHFCScale seeds HFC stages at this uncore scale (core at
	// maximum): compute-bound stages hide memory latency under the
	// core computation, so their uncore can be downclocked nearly for
	// free until the transfer time surfaces.
	PriorHFCScale float64
}

// DefaultConfig mirrors the paper's production settings with a
// conservative uncore candidate set.
func DefaultConfig() Config {
	return Config{
		UncoreScales:   []float64{1.0, 0.95, 0.9, 0.85},
		FAIMicros:      5000,
		PerfLossTarget: 0.02,
		Guard:          0.7,
		GA:             ga.DefaultConfig(),
		PriorHFCScale:  0.95,
	}
}

// Input bundles what generation consumes.
type Input struct {
	Chip *npu.Chip
	// Profile is the stock baseline profile.
	Profile *profiler.Profile
	// Power is the stock power model.
	Power *powermodel.Model
	// UncoreDynW is the calibrated clock-proportional share of uncore
	// idle power (watts at nominal; scales with s²).
	UncoreDynW float64
}

// CalibrateUncore measures the clock-proportional uncore idle power by
// reading cold idle SoC power at nominal and at a reduced uncore scale
// — the extra offline measurement a platform with uncore DVFS would
// provide.
func CalibrateUncore(rig *powermodel.Rig, probeScale float64, samples int) (float64, error) {
	if rig == nil || rig.Chip == nil || rig.Ground == nil || rig.Sensor == nil {
		return 0, fmt.Errorf("dualdvfs: incomplete rig")
	}
	if probeScale <= 0 || probeScale >= 1 {
		return 0, fmt.Errorf("dualdvfs: probe scale %g outside (0, 1)", probeScale)
	}
	if samples <= 0 {
		samples = 64
	}
	// Any in-window point works; the plan's third equilibrium point is
	// 1500 MHz on Ascend.
	probeF := rig.Chip.Curve.Plan().Equilibrium[2]
	read := func(g *powersim.Ground) float64 {
		sum := 0.0
		for i := 0; i < samples; i++ {
			sum += rig.Sensor.Power(g.SoCPower(nil, float64(probeF), 0))
		}
		return sum / float64(samples)
	}
	stock := read(rig.Ground)
	scaledGround := *rig.Ground
	scaledGround.Chip = rig.Chip.WithUncoreScale(probeScale)
	scaledGround.UncoreScale = probeScale
	scaled := read(&scaledGround)
	dyn := (stock - scaled) / (1 - probeScale*probeScale)
	if dyn < 0 {
		dyn = 0
	}
	return dyn, nil
}

// pair indexes the (core frequency, uncore scale) allele grid.
type pair struct {
	freqIdx, scaleIdx int
}

type problem struct {
	grid   []units.MHz
	scales []float64
	stages []preprocess.Stage

	// Table holds the per-(stage, pair-allele) prediction quadruples
	// in the flat SoA layout shared with core (see internal/evaltab).
	// Embedded: its Alleles, Score and partial-sum methods are the
	// problem's ga.PartialScorer implementation. Safe for concurrent
	// use: the table is read-only after buildProblem.
	*evaltab.Table

	baselineIdx int // allele of (f_max, scale 1)
	priorLFCIdx int // prior allele for LFC stages
	priorHFCIdx int // prior allele for HFC stages

	// seeds is built once: the GA engine copies seed vectors, so
	// repeat searches on a cached problem stay allocation-free.
	seeds [][]int
}

func (p *problem) alleleOf(freqIdx, scaleIdx int) int { return freqIdx*len(p.scales) + scaleIdx }

func (p *problem) pairOf(allele int) pair {
	return pair{freqIdx: allele / len(p.scales), scaleIdx: allele % len(p.scales)}
}

func (p *problem) Genes() int { return len(p.stages) }

func (p *problem) Seeds() [][]int {
	if p.seeds == nil {
		baseline := make([]int, len(p.stages))
		prior := make([]int, len(p.stages))
		for i := range p.stages {
			baseline[i] = p.baselineIdx
			if p.stages[i].Sensitive {
				prior[i] = p.priorHFCIdx
			} else {
				prior[i] = p.priorLFCIdx
			}
		}
		p.seeds = [][]int{baseline, prior}
	}
	return p.seeds
}

func (p *problem) predict(ind []int) core.Prediction {
	pr := p.Table.Predict(ind)
	return core.Prediction{
		TimeMicros: units.Micros(pr.TimeMicros),
		SoCWatts:   units.Watt(pr.SoCWatts),
		CoreWatts:  units.Watt(pr.CoreWatts),
		DeltaT:     units.Celsius(pr.DeltaTC),
	}
}

// GenerateContext searches (core frequency, uncore scale) pairs per
// stage, with the genetic search observing ctx at generation
// boundaries, mirroring core.GenerateContext.
func GenerateContext(ctx context.Context, in Input, cfg Config) (*core.Strategy, []preprocess.Stage, *ga.Result, error) {
	if in.Chip == nil || in.Profile == nil || len(in.Profile.Records) == 0 || in.Power == nil {
		return nil, nil, nil, fmt.Errorf("dualdvfs: incomplete input")
	}
	results := classify.Trace(in.Profile)
	stages, err := preprocess.Stages(in.Profile, results, float64(cfg.FAIMicros))
	if err != nil {
		return nil, nil, nil, err
	}
	prob, err := buildProblem(in, cfg, stages)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := ga.RunContext(ctx, prob, cfg.GA)
	if err != nil {
		return nil, nil, nil, err
	}
	return prob.strategy(res.Best), stages, res, nil
}

func buildProblem(in Input, cfg Config, stages []preprocess.Stage) (*problem, error) {
	scales := append([]float64(nil), cfg.UncoreScales...)
	hasOne := false
	for _, s := range scales {
		if stats.Approx(s, 1) {
			hasOne = true
		}
		if s <= 0 || s > 1 {
			return nil, fmt.Errorf("dualdvfs: invalid uncore scale %g", s)
		}
	}
	if !hasOne {
		scales = append([]float64{1}, scales...)
	}
	grid := in.Chip.Curve.Grid()
	p := &problem{
		grid:   grid,
		scales: scales,
		stages: stages,
		Table:  evaltab.New(len(stages), len(grid)*len(scales)),
	}
	p.Table.K = float64(in.Power.K)
	p.Table.TemperatureAware = in.Power.TemperatureAware
	if p.Table.TemperatureAware {
		p.Table.GammaCore = in.Power.AICore.Gamma
		p.Table.GammaSoC = in.Power.SoC.Gamma
	}
	// Scaled chips for white-box timing.
	chips := make([]*npu.Chip, len(scales))
	for i, s := range scales {
		if stats.Approx(s, 1) {
			chips[i] = in.Chip
		} else {
			chips[i] = in.Chip.WithUncoreScale(s)
		}
	}
	// Locate baseline and prior alleles. The prior individual pairs
	// LFC stages with the plan's prior core frequency (nominal uncore:
	// scaling the uncore down on a memory-bound stage costs time
	// directly) and HFC stages with a downclocked uncore (maximum core
	// frequency).
	one := indexOf(scales, 1)
	p.baselineIdx = p.alleleOf(len(grid)-1, one)
	prior := in.Chip.Curve.Plan().PriorLFC
	priorF := slices.IndexFunc(grid, func(f units.MHz) bool { return stats.Approx(f, prior) })
	p.priorLFCIdx = p.alleleOf(priorF, one)
	hfcScale := indexOf(scales, cfg.PriorHFCScale)
	if hfcScale < 0 {
		hfcScale = one
	}
	p.priorHFCIdx = p.alleleOf(len(grid)-1, hfcScale)

	// Fill the table operator by operator (see core.buildProblem): one
	// key and one power lookup per operator, voltage, idle power and
	// uncore saving once per allele; each cell still receives its
	// operators in ascending trace order.
	volts := make([]float64, len(grid))
	points := make([]powermodel.Point, len(grid))
	for fi, f := range grid {
		volts[fi] = float64(in.Chip.Curve.Voltage(f))
		points[fi] = in.Power.At(f, 0)
	}
	dynSavings := make([]float64, len(scales))
	for sc, scale := range scales {
		dynSavings[sc] = in.UncoreDynW * (1 - scale*scale)
	}
	for si, st := range stages {
		for i := st.OpStart; i < st.OpEnd; i++ {
			rec := &in.Profile.Records[i]
			power, known := in.Power.Ops[rec.Spec.Key()]
			for fi, f := range grid {
				coreP, socP := points[fi].OpPower(power, known)
				for sc := range scales {
					dur := rec.DurMicros
					if rec.Spec.Class == op.Compute {
						// White-box timing on the scaled chip.
						dur = chips[sc].Time(rec.Spec, float64(f))
					}
					soc := float64(socP) - dynSavings[sc]
					p.Table.Add(si, p.alleleOf(fi, sc), dur, soc*dur, float64(coreP)*dur, volts[fi]*dur)
				}
			}
		}
	}
	baseline := make([]int, len(stages))
	for i := range baseline {
		baseline[i] = p.baselineIdx
	}
	basePred := p.predict(baseline)
	if basePred.TimeMicros <= 0 {
		return nil, fmt.Errorf("dualdvfs: degenerate baseline prediction")
	}
	guard := cfg.Guard
	if guard <= 0 || guard > 1 {
		guard = 1
	}
	p.Table.PerBaseline = 1 / float64(basePred.TimeMicros)
	p.Table.PerLB = p.Table.PerBaseline * (1 - cfg.PerfLossTarget*guard)
	p.Seeds() // build the seed vectors now: the problem is immutable (and trivially concurrency-safe) once returned
	return p, nil
}

func indexOf(xs []float64, want float64) int {
	for i, x := range xs {
		if stats.Approx(x, want) {
			return i
		}
	}
	return -1
}

// strategy converts an assignment to a two-domain strategy.
func (p *problem) strategy(ind []int) *core.Strategy {
	s := &core.Strategy{BaselineMHz: p.grid[len(p.grid)-1]}
	lastF, lastS := units.MHz(-1), -1.0
	for si, allele := range ind {
		pr := p.pairOf(allele)
		f := p.grid[pr.freqIdx]
		scale := p.scales[pr.scaleIdx]
		if stats.Approx(f, lastF) && stats.Approx(scale, lastS) {
			continue
		}
		s.Points = append(s.Points, core.FreqPoint{
			OpIndex:     p.stages[si].OpStart,
			TimeMicros:  units.Micros(p.stages[si].StartMicros),
			FreqMHz:     f,
			UncoreScale: scale,
		})
		lastF, lastS = f, scale
	}
	return s
}
