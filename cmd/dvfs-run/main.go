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
	"io"
	"os"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/executor"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/traceio"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dvfs-run:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dvfs-run", flag.ExitOnError)
	fs.SetOutput(stderr)
	modelName := fs.String("model", "gpt3", "workload name ("+strings.Join(workload.Names(), ", ")+")")
	target := fs.Float64("target", 0.02, "performance loss target (fraction)")
	faiMs := fs.Float64("fai", 5, "frequency adjustment interval in ms")
	pop := fs.Int("pop", 200, "GA population size")
	gens := fs.Int("gens", 600, "GA generations")
	seed := fs.Int64("seed", 1, "GA seed")
	latencyMs := fs.Float64("latency", 1, "SetFreq actuation latency in ms")
	saveStrategy := fs.String("save-strategy", "", "write the generated strategy JSON to this path")
	loadStrategy := fs.String("load-strategy", "", "skip the search and execute this strategy JSON")
	saveModels := fs.String("save-models", "", "write the fitted perf/power models to this path")
	loadModels := fs.String("load-models", "", "reuse fitted models from this path, skipping calibration and profiling")
	noMeasure := fs.Bool("no-measure", false, "stop after strategy generation; skip the measured baseline/DVFS runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := workload.ByName(*modelName)
	if err != nil {
		return err
	}
	lab := pipeline.NewLab()
	var strat *core.Strategy
	if *loadStrategy != "" {
		strat, err = traceio.LoadStrategy(*loadStrategy)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded strategy %s: %d SetFreq per iteration\n", *loadStrategy, strat.Switches())
	} else {
		var bundles map[string]*traceio.ModelBundle
		if *loadModels != "" {
			b, err := traceio.LoadModels(*loadModels)
			if err != nil {
				return err
			}
			bundles = map[string]*traceio.ModelBundle{strings.ToLower(m.Name): b}
			fmt.Fprintf(stdout, "loading fitted models for %s from %s (calibration and profiling skipped)\n",
				m.Name, *loadModels)
		} else {
			fit := lab.Chip.Curve.Plan().PowerFit
			fmt.Fprintf(stdout, "calibrating chip and modeling %s (profiles at %g/%g MHz)...\n", m.Name, fit[0], fit[1])
		}
		ms, err := lab.ModelsFor(m, true, "", bundles)
		if err != nil {
			return err
		}
		if *saveModels != "" {
			b, err := ms.Bundle()
			if err != nil {
				return err
			}
			if err := traceio.SaveModels(*saveModels, b); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "fitted models written to %s\n", *saveModels)
		}
		cfg := core.DefaultConfig()
		cfg.PerfLossTarget = *target
		cfg.FAIMicros = units.Millis(*faiMs).Micros()
		cfg.GA.PopSize = *pop
		cfg.GA.Generations = *gens
		cfg.GA.Seed = *seed

		s, stages, gaRes, err := core.GenerateContext(context.Background(), ms.Input(lab.Chip), cfg)
		if err != nil {
			return err
		}
		strat = s
		fmt.Fprintf(stdout, "search: %d stages, %d evaluations, best score %.4g\n",
			len(stages), gaRes.Evaluations, gaRes.BestScore)
		fmt.Fprintf(stdout, "strategy: %d SetFreq per iteration\n", strat.Switches())
		if *saveStrategy != "" {
			if err := traceio.SaveStrategy(*saveStrategy, strat); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "strategy written to %s\n", *saveStrategy)
		}
	}

	if *noMeasure {
		return nil
	}
	base, err := lab.MeasureFixed(m, lab.Chip.Curve.Max())
	if err != nil {
		return err
	}
	opt := executor.DefaultOptions()
	opt.SetFreqLatencyMicros = *latencyMs * 1000
	dvfs, err := lab.MeasureStrategy(m, strat, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%-22s %12s %12s\n", "", "baseline", "DVFS")
	fmt.Fprintf(stdout, "%-22s %11.3fs %11.3fs  (%+.2f%%)\n", "iteration time",
		base.TimeMicros/1e6, dvfs.TimeMicros/1e6, 100*(dvfs.TimeMicros/base.TimeMicros-1))
	fmt.Fprintf(stdout, "%-22s %11.2fW %11.2fW  (%+.2f%%)\n", "SoC power",
		base.MeanSoCW, dvfs.MeanSoCW, 100*(dvfs.MeanSoCW/base.MeanSoCW-1))
	fmt.Fprintf(stdout, "%-22s %11.2fW %11.2fW  (%+.2f%%)\n", "AICore power",
		base.MeanCoreW, dvfs.MeanCoreW, 100*(dvfs.MeanCoreW/base.MeanCoreW-1))
	fmt.Fprintf(stdout, "%-22s %11.2fJ %11.2fJ  (%+.2f%%)\n", "SoC energy/iteration",
		base.EnergySoCJ, dvfs.EnergySoCJ, 100*(dvfs.EnergySoCJ/base.EnergySoCJ-1))
	fmt.Fprintf(stdout, "%-22s %11.1fC %11.1fC\n", "die temperature", base.EndTempC, dvfs.EndTempC)
	return nil
}
