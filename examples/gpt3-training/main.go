// GPT-3 training energy optimization: the paper's headline experiment
// (Sect. 7.4) run end to end — profile a ~18,000-operator training
// iteration, build performance and power models, search per-stage
// frequencies with the genetic algorithm at several loss targets, and
// measure each strategy on the simulated NPU.
//
//	go run ./examples/gpt3-training            # full 200x600 search
//	go run ./examples/gpt3-training -quick     # reduced search
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"npudvfs"
)

func main() {
	quick := flag.Bool("quick", false, "use a reduced GA for a faster demo")
	flag.Parse()

	lab := npudvfs.NewLab()
	m, err := npudvfs.WorkloadByName("gpt3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeling %s: %d operators per iteration\n", m.Name, m.Ops())
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		log.Fatal(err)
	}
	base, err := lab.MeasureFixed(m, lab.Chip.Curve.Max())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline at 1800 MHz: iteration %.2f s, SoC %.2f W, AICore %.2f W\n\n",
		base.TimeMicros/1e6, base.MeanSoCW, base.MeanCoreW)

	fmt.Printf("%8s %10s %8s %10s %10s %9s\n",
		"target", "iter", "loss", "SoC", "AICore", "SetFreq")
	for i, target := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
		cfg := npudvfs.DefaultStrategyConfig()
		cfg.PerfLossTarget = target
		cfg.GA.Seed = int64(i + 1)
		if *quick {
			cfg.GA.PopSize = 60
			cfg.GA.Generations = 150
		}
		strat, err := npudvfs.GenerateStrategy(context.Background(), ms.Input(lab.Chip), cfg)
		if err != nil {
			log.Fatal(err)
		}
		dvfs, err := lab.MeasureStrategy(m, strat, npudvfs.DefaultExecutorOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7.0f%% %9.2fs %7.2f%% %8.2fW %9.2fW %9d\n",
			target*100,
			dvfs.TimeMicros/1e6,
			100*(dvfs.TimeMicros/base.TimeMicros-1),
			dvfs.MeanSoCW,
			dvfs.MeanCoreW,
			strat.Switches())
	}
	fmt.Println("\nthe AICore reduction grows with the loss budget while the SoC")
	fmt.Println("reduction stays roughly a third of it: the uncore (HBM, bus,")
	fmt.Println("AICPU) is not frequency-tunable on this platform (Sect. 8.2).")
}
