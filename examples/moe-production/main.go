// Production workflow on a mixture-of-experts workload: generate a
// strategy once, persist it as JSON, export a chrome://tracing
// timeline, then deploy the reloaded strategy open loop, as the
// paper's SetFreq executor does, and watch the loss across iterations.
//
//	go run ./examples/moe-production
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"npudvfs"
	"npudvfs/internal/traceio"
)

func main() {
	lab := npudvfs.NewLab()
	m, err := npudvfs.WorkloadByName("mixtral-moe")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d operators per iteration\n", m.Name, m.Ops())

	// 1. Model and search once (the paper's Fig. 1 pipeline).
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg := npudvfs.DefaultStrategyConfig()
	cfg.GA.PopSize = 100
	cfg.GA.Generations = 300
	strat, err := npudvfs.GenerateStrategy(context.Background(), ms.Input(lab.Chip), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Persist the artifacts: the strategy JSON is what a deployment
	//    ships; the chrome trace is for humans.
	dir, err := os.MkdirTemp("", "moe-production")
	if err != nil {
		log.Fatal(err)
	}
	strategyPath := filepath.Join(dir, "strategy.json")
	if err := npudvfs.SaveStrategy(strategyPath, strat); err != nil {
		log.Fatal(err)
	}
	tracePath := filepath.Join(dir, "timeline.json")
	if err := traceio.SaveChromeTrace(tracePath, ms.Baseline, strat); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strategy (%d SetFreq) -> %s\nchrome trace -> %s\n",
		strat.Switches(), strategyPath, tracePath)

	// 3. Deploy: reload the strategy and run it open loop.
	deployed, err := npudvfs.LoadStrategy(strategyPath)
	if err != nil {
		log.Fatal(err)
	}
	base, err := lab.MeasureFixed(m, lab.Chip.Curve.Max())
	if err != nil {
		log.Fatal(err)
	}
	ex := npudvfs.NewExecutor(lab.Chip, lab.Ground)
	state := npudvfs.NewThermalState(npudvfs.DefaultThermal())
	state.SetTemp(npudvfs.Celsius(base.EndTempC)) // start warmed up
	fmt.Printf("\nbaseline: %.1f ms, %.2f W AICore\n", base.TimeMicros/1000, base.MeanCoreW)
	for iter := 0; iter < 8; iter++ {
		res, err := ex.Run(m.Trace, deployed, state, npudvfs.DefaultExecutorOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iter %d: %.1f ms (%+.2f%%), AICore %.2f W (%+.2f%%)\n",
			iter, res.TimeMicros/1000,
			100*(res.TimeMicros/base.TimeMicros-1),
			res.MeanCoreW, 100*(res.MeanCoreW/base.MeanCoreW-1))
	}
}
