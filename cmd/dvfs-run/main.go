// Command dvfs-run performs the full end-to-end energy optimization of
// Fig. 1 for one workload on the simulated NPU: offline chip
// calibration, profiling at the model-building frequencies,
// performance and power model construction, genetic-algorithm strategy
// generation, and measured execution of the resulting strategy against
// the fixed-maximum-frequency baseline.
//
// Usage:
//
//	dvfs-run -model gpt3 -target 0.02
//	dvfs-run -model bert -target 0.04 -fai 100 -pop 200 -gens 600
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/dualdvfs"
	"npudvfs/internal/executor"
	"npudvfs/internal/ga"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/powermodel"
	"npudvfs/internal/powersim"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func main() {
	modelName := flag.String("model", "gpt3", "workload name ("+strings.Join(workload.Names(), ", ")+")")
	target := flag.Float64("target", 0.02, "performance loss target (fraction)")
	faiMs := flag.Float64("fai", 5, "frequency adjustment interval in ms")
	pop := flag.Int("pop", 200, "GA population size")
	gens := flag.Int("gens", 600, "GA generations")
	seed := flag.Int64("seed", 1, "GA seed")
	latencyMs := flag.Float64("latency", 1, "SetFreq actuation latency in ms")
	dual := flag.Bool("dual", false, "search core+uncore pairs (two-domain extension)")
	saveStrategy := flag.String("save-strategy", "", "write the generated strategy JSON to this path")
	loadStrategy := flag.String("load-strategy", "", "skip the search and execute this strategy JSON")
	saveModels := flag.String("save-models", "", "write the fitted perf/power models to this path")
	loadModels := flag.String("load-models", "", "reuse fitted models from this path, skipping calibration and profiling")
	noMeasure := flag.Bool("no-measure", false, "stop after strategy generation; skip the measured baseline/DVFS runs")
	flag.Parse()

	m, err := workload.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	lab := pipeline.NewLab()
	var strat *core.Strategy
	if *loadStrategy != "" {
		strat, err = traceio.LoadStrategy(*loadStrategy)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded strategy %s: %d SetFreq per iteration\n", *loadStrategy, strat.Switches())
	} else {
		var bundles map[string]*traceio.ModelBundle
		if *loadModels != "" {
			b, err := traceio.LoadModels(*loadModels)
			if err != nil {
				fatal(err)
			}
			bundles = map[string]*traceio.ModelBundle{strings.ToLower(m.Name): b}
			fmt.Printf("loading fitted models for %s from %s (calibration and profiling skipped)\n",
				m.Name, *loadModels)
		} else {
			fit := lab.Chip.Curve.Plan().PowerFit
			fmt.Printf("calibrating chip and modeling %s (profiles at %g/%g MHz)...\n", m.Name, fit[0], fit[1])
		}
		ms, err := lab.ModelsFor(m, true, "", bundles)
		if err != nil {
			fatal(err)
		}
		if *saveModels != "" {
			b, err := ms.Bundle()
			if err != nil {
				fatal(err)
			}
			if err := traceio.SaveModels(*saveModels, b); err != nil {
				fatal(err)
			}
			fmt.Printf("fitted models written to %s\n", *saveModels)
		}
		cfg := core.DefaultConfig()
		cfg.PerfLossTarget = *target
		cfg.FAIMicros = units.Millis(*faiMs).Micros()
		cfg.GA.PopSize = *pop
		cfg.GA.Generations = *gens
		cfg.GA.Seed = *seed

		var stages []preprocess.Stage
		var gaRes *ga.Result
		if *dual {
			rig := &powermodel.Rig{
				Chip:    lab.Chip,
				Ground:  lab.Ground,
				Sensor:  powersim.NewSensor(99),
				Thermal: lab.Thermal,
			}
			dyn, err := dualdvfs.CalibrateUncore(rig, 0.8, 64)
			if err != nil {
				fatal(err)
			}
			dcfg := dualdvfs.DefaultConfig()
			dcfg.PerfLossTarget = cfg.PerfLossTarget
			dcfg.FAIMicros = cfg.FAIMicros
			dcfg.GA = cfg.GA
			strat, stages, gaRes, err = dualdvfs.GenerateContext(context.Background(), dualdvfs.Input{
				Chip: lab.Chip, Profile: ms.Baseline, Power: ms.Power, UncoreDynW: dyn,
			}, dcfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("dual-domain search: uncore dyn %.1f W, %d uncore switches\n",
				dyn, strat.UncoreSwitches())
		} else {
			strat, stages, gaRes, err = core.GenerateContext(context.Background(), ms.Input(lab.Chip), cfg)
			if err != nil {
				fatal(err)
			}
		}
		fmt.Printf("search: %d stages, %d evaluations, best score %.4g\n",
			len(stages), gaRes.Evaluations, gaRes.BestScore)
		fmt.Printf("strategy: %d SetFreq per iteration\n", strat.Switches())
		if *saveStrategy != "" {
			if err := traceio.SaveStrategy(*saveStrategy, strat); err != nil {
				fatal(err)
			}
			fmt.Printf("strategy written to %s\n", *saveStrategy)
		}
	}

	if *noMeasure {
		return
	}
	base, err := lab.MeasureFixed(m, lab.Chip.Curve.Max())
	if err != nil {
		fatal(err)
	}
	opt := executor.DefaultOptions()
	opt.SetFreqLatencyMicros = *latencyMs * 1000
	dvfs, err := lab.MeasureStrategy(m, strat, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-22s %12s %12s\n", "", "baseline", "DVFS")
	fmt.Printf("%-22s %11.3fs %11.3fs  (%+.2f%%)\n", "iteration time",
		base.TimeMicros/1e6, dvfs.TimeMicros/1e6, 100*(dvfs.TimeMicros/base.TimeMicros-1))
	fmt.Printf("%-22s %11.2fW %11.2fW  (%+.2f%%)\n", "SoC power",
		base.MeanSoCW, dvfs.MeanSoCW, 100*(dvfs.MeanSoCW/base.MeanSoCW-1))
	fmt.Printf("%-22s %11.2fW %11.2fW  (%+.2f%%)\n", "AICore power",
		base.MeanCoreW, dvfs.MeanCoreW, 100*(dvfs.MeanCoreW/base.MeanCoreW-1))
	fmt.Printf("%-22s %11.2fJ %11.2fJ  (%+.2f%%)\n", "SoC energy/iteration",
		base.EnergySoCJ, dvfs.EnergySoCJ, 100*(dvfs.EnergySoCJ/base.EnergySoCJ-1))
	fmt.Printf("%-22s %11.1fC %11.1fC\n", "die temperature", base.EndTempC, dvfs.EndTempC)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvfs-run:", err)
	os.Exit(1)
}
