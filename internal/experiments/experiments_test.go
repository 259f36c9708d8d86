package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/workload"
)

// The experiments package is exercised end-to-end by the repository
// benchmarks; these tests verify the cheap experiments fully and the
// expensive ones through reduced configurations, asserting the
// paper-shape invariants each figure/table is about.

var (
	labOnce sync.Once
	labInst *Harness
)

func sharedLab() *Harness {
	labOnce.Do(func() { labInst = &Harness{Lab: NewLab()} })
	return labInst
}

func TestFig3Shape(t *testing.T) {
	r := sharedLab().Fig3()
	if r.SaturationMHz < 1000 || r.SaturationMHz > 1800 {
		t.Fatalf("saturation %g MHz outside the DVFS window", r.SaturationMHz)
	}
	// Throughput rises then saturates; cycles flat then rising.
	var sawFlat bool
	for i := 1; i < len(r.Rows); i++ {
		dTp := r.Rows[i].ThroughputGBs - r.Rows[i-1].ThroughputGBs
		if dTp < 0 {
			t.Fatalf("throughput decreased at %g MHz", r.Rows[i].MHz)
		}
		if dTp == 0 {
			sawFlat = true
		} else if sawFlat {
			t.Fatalf("throughput rose after saturating at %g MHz", r.Rows[i].MHz)
		}
	}
	if !sawFlat {
		t.Error("throughput never saturated (Fig. 3(a) shape missing)")
	}
	if !strings.Contains(r.String(), "Fig. 3") {
		t.Error("missing report header")
	}
}

func TestFig4Breakpoints(t *testing.T) {
	r := sharedLab().Fig4()
	if len(r.BreakpointsMHz) < 2 {
		t.Fatalf("got %d breakpoints, want >= 2 (St and Ld saturation)", len(r.BreakpointsMHz))
	}
	// Slopes must be non-decreasing (convex piecewise linear).
	for i := 1; i < len(r.SlopesPerSeg); i++ {
		if r.SlopesPerSeg[i] < r.SlopesPerSeg[i-1]-1e-9 {
			t.Fatalf("slope decreased at segment %d", i)
		}
	}
}

func TestFig9MatchesCurve(t *testing.T) {
	r := sharedLab().Fig9()
	if len(r.Points) != 9 {
		t.Fatalf("got %d V-F points, want 9", len(r.Points))
	}
	if r.Points[0].Volts != r.Points[3].Volts {
		t.Error("voltage should be flat below the knee")
	}
	if r.Points[8].Volts <= r.Points[4].Volts {
		t.Error("voltage should rise above the knee")
	}
}

func TestFig10LinearInPower(t *testing.T) {
	skipHeavyUnderRace(t)
	r, err := sharedLab().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) < 3 {
		t.Fatalf("want >= 3 operator lines, got %d", len(r.Lines))
	}
	if rel := abs(r.FittedK-r.TrueK) / r.TrueK; rel > 0.05 {
		t.Errorf("fitted k = %g, truth %g", r.FittedK, r.TrueK)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig16Func2Accurate(t *testing.T) {
	r, err := sharedLab().Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("got %d operators, want 5", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeanErr[Func2] > 0.08 {
			t.Errorf("%s: Func2 mean error %.3f too high", row.Name, row.MeanErr[Func2])
		}
	}
}

func TestFitCostFunc2MuchFaster(t *testing.T) {
	r, err := sharedLab().FitCost()
	if err != nil {
		t.Fatal(err)
	}
	if r.Operators < 3000 {
		t.Errorf("only %d operators fitted; ShuffleNet should have ~4,343", r.Operators)
	}
	// The paper reports a ~24x gap (4,386 ms vs 105,930 ms).
	if r.Speedup < 5 {
		t.Errorf("Func2 speedup = %.1fx, want a large direct-solve advantage", r.Speedup)
	}
}

func TestInferenceShape(t *testing.T) {
	r, err := sharedLab().Inference()
	if err != nil {
		t.Fatal(err)
	}
	// Sect. 8.4 shape: small loss, large AICore reduction, host-bound.
	if r.PerfLoss > 0.05 {
		t.Errorf("inference loss %.3f too large for a host-bound step", r.PerfLoss)
	}
	if r.CoreReduction < 0.15 {
		t.Errorf("AICore reduction %.3f, want > 15%% (paper: 25%%)", r.CoreReduction)
	}
	if r.SoCReduction <= 0 {
		t.Errorf("SoC reduction %.3f, want positive", r.SoCReduction)
	}
	if r.IdleFraction < 0.25 {
		t.Errorf("idle fraction %.2f; the trace must be host-bound", r.IdleFraction)
	}
}

// quickTable3Case runs the end-to-end pipeline on BERT with a reduced
// GA; the full-scale version is the BenchmarkTable3EndToEnd benchmark.
func TestEndToEndBERTQuick(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("end-to-end pipeline in -short mode")
	}
	l := sharedLab()
	ms, err := l.BuildModels(workload.BERT(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.GA.PopSize = 60
	cfg.GA.Generations = 150
	cfg.GA.Seed = 4
	strat, _, _, err := core.GenerateContext(context.Background(), ms.Input(l.Chip), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.MeasureFixed(ms.Workload, 1800)
	if err != nil {
		t.Fatal(err)
	}
	dvfs, err := l.MeasureStrategy(ms.Workload, strat, executor.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	loss := dvfs.TimeMicros/base.TimeMicros - 1
	coreSave := 1 - dvfs.MeanCoreW/base.MeanCoreW
	socSave := 1 - dvfs.MeanSoCW/base.MeanSoCW
	if loss > 0.04 {
		t.Errorf("measured loss %.3f far beyond the 2%% target", loss)
	}
	if coreSave <= 0.02 {
		t.Errorf("AICore saving %.3f, want material savings", coreSave)
	}
	if socSave <= 0 {
		t.Errorf("SoC saving %.3f, want positive", socSave)
	}
	if coreSave <= socSave {
		t.Errorf("AICore relative saving (%.3f) should exceed SoC (%.3f)", coreSave, socSave)
	}
}

func TestFig17StricterConvergesFasterQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("GA convergence comparison in -short mode")
	}
	l := sharedLab()
	ms, err := l.BuildModels(workload.BERT(), true)
	if err != nil {
		t.Fatal(err)
	}
	history := func(target float64) []float64 {
		cfg := core.DefaultConfig()
		cfg.PerfLossTarget = target
		cfg.GA = ga.Config{PopSize: 60, Generations: 200, MutationRate: 0.15,
			CrossoverRate: 0.7, Elitism: 2, Seed: 9}
		_, _, res, err := core.GenerateContext(context.Background(), ms.Input(l.Chip), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.History
	}
	tight := history(0.02)
	loose := history(0.10)
	// Looser bounds reach strictly better final scores (more power
	// headroom) — the Fig. 17 ordering.
	if loose[len(loose)-1] <= tight[len(tight)-1] {
		t.Errorf("10%% target final score %.4g should exceed 2%% target %.4g",
			loose[len(loose)-1], tight[len(tight)-1])
	}
}

func TestScoringThroughputFastEnough(t *testing.T) {
	if testing.Short() {
		t.Skip("GPT-3 modeling in -short mode")
	}
	r, err := sharedLab().ScoringThroughput(context.Background(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Sect. 8.1: a policy must be evaluable in milliseconds; ours is
	// far below that.
	if r.PerEvalMicros > 10000 {
		t.Errorf("policy evaluation takes %.0f µs, want << 10 ms", r.PerEvalMicros)
	}
	if r.ModelFreeEquivalentSec < 1000 {
		t.Errorf("model-free equivalent %.0f s implausibly low", r.ModelFreeEquivalentSec)
	}
}

func TestModelFreeStarved(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("GPT-3 pipeline in -short mode")
	}
	r, err := sharedLab().ModelFree(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelFreeEvals >= 100 {
		t.Errorf("model-free admitted %d evaluations; 12 s iterations should cap it near 25", r.ModelFreeEvals)
	}
	if r.ModelBasedEvals < 10000 {
		t.Errorf("model-based evaluations = %d, want tens of thousands", r.ModelBasedEvals)
	}
	if r.ModelBasedCoreRed <= r.ModelFreeCoreRed {
		t.Errorf("model-based saving %.3f should beat model-free %.3f under the budget",
			r.ModelBasedCoreRed, r.ModelFreeCoreRed)
	}
}

func TestUncoreWhatIfAddsHeadroom(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("GPT-3 pipeline in -short mode")
	}
	r, err := sharedLab().UncoreDVFS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Find the 90% uncore rows: SoC savings with uncore tuning must
	// exceed the core-DVFS-only row, at higher loss.
	var coreOnly, combined90 *UncoreRow
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Scale == 1.0 && row.CoreDVFS {
			coreOnly = row
		}
		if row.Scale == 0.9 && row.CoreDVFS {
			combined90 = row
		}
	}
	if coreOnly == nil || combined90 == nil {
		t.Fatal("missing rows in uncore what-if")
	}
	if combined90.SoCReduction <= coreOnly.SoCReduction {
		t.Errorf("uncore tuning should add SoC savings: %.3f vs %.3f",
			combined90.SoCReduction, coreOnly.SoCReduction)
	}
	if combined90.PerfLoss <= coreOnly.PerfLoss {
		t.Errorf("uncore downclock should cost performance: %.3f vs %.3f",
			combined90.PerfLoss, coreOnly.PerfLoss)
	}
}

func TestAttributionMemoryOpsGoLow(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("GPT-3 pipeline in -short mode")
	}
	r, err := sharedLab().Attribution(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("strategy uses %d frequencies; expected a real spread", len(r.Rows))
	}
	// Sect. 7.4's validation: memory-bound operators should land at
	// low frequencies far more often than at the maximum.
	bias := r.LowFreqMemoryBias(1500)
	if bias < 0.25 {
		t.Errorf("only %.0f%% of memory-bound ops run below 1500 MHz", bias*100)
	}
	// The maximum frequency must still hold the bulk of core-bound
	// operators.
	var maxRow *AttributionRow
	for i := range r.Rows {
		if maxRow == nil || r.Rows[i].FreqMHz > maxRow.FreqMHz {
			maxRow = &r.Rows[i]
		}
	}
	if maxRow.SensitiveOps == 0 {
		t.Error("no core-bound operators remained at the maximum frequency")
	}
}

func TestSearchAblationGAWins(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("GPT-3 pipeline in -short mode")
	}
	r, err := sharedLab().SearchAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SearchRow{}
	for _, row := range r.Rows {
		byName[row.Algorithm] = row
	}
	ga, greedy, random := byName["genetic"], byName["greedy"], byName["random"]
	if ga.CoreReduction <= greedy.CoreReduction {
		t.Errorf("GA (%.3f) should beat greedy (%.3f)", ga.CoreReduction, greedy.CoreReduction)
	}
	if greedy.CoreReduction <= random.CoreReduction {
		t.Errorf("greedy (%.3f) should beat random (%.3f)", greedy.CoreReduction, random.CoreReduction)
	}
	if random.CoreReduction > 0.01 {
		t.Errorf("random search found %.3f savings; thousand-gene uniform sampling should fail", random.CoreReduction)
	}
}

func TestChartsRenderable(t *testing.T) {
	l := sharedLab()
	charts := []interface{ SVG() (string, error) }{
		l.Fig3().Chart(),
		l.Fig4().Chart(),
		l.Fig9().Chart(),
	}
	for i, c := range charts {
		svg, err := c.SVG()
		if err != nil {
			t.Fatalf("chart %d: %v", i, err)
		}
		if len(svg) < 500 {
			t.Errorf("chart %d suspiciously small (%d bytes)", i, len(svg))
		}
	}
}

// TestPaperModelErrorEnvelopes runs the paper's model evaluation at
// full scale and holds it to the envelopes reproduced here: the Table 2
// power model within the paper's 4.62 % mean error, its γ = 0 ablation
// strictly worse, and Fig. 15's Func. 2 within 5 % on at least 90 % of
// points.
func TestPaperModelErrorEnvelopes(t *testing.T) {
	skipHeavyUnderRace(t)
	if testing.Short() {
		t.Skip("full Table 2 and Fig. 15 evaluation in -short mode")
	}
	l := sharedLab()
	t2, err := l.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if t2.MeanErr > 0.0462 {
		t.Errorf("Table 2 mean error %.2f%%, want <= 4.62%%", t2.MeanErr*100)
	}
	if t2.AblationMeanErr <= t2.MeanErr {
		t.Errorf("Table 2 gamma=0 error %.2f%% not worse than the temperature-aware %.2f%%",
			t2.AblationMeanErr*100, t2.MeanErr*100)
	}
	f15, err := l.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if within := f15.CDF(Func2, []float64{0.05})[0].Fraction; within < 0.90 {
		t.Errorf("Fig. 15: %.1f%% of Func. 2 points within 5%%, want >= 90%%", within*100)
	}
}
