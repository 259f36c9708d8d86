// Quickstart: model a single operator's time/frequency behaviour from
// two profiled points, then run a small end-to-end DVFS optimization.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"npudvfs"
)

func main() {
	chip := npudvfs.DefaultChip()

	// 1. Describe an operator the way the CANN profiler would see it:
	//    a memory-heavy vector kernel with half its traffic hitting L2.
	gelu := npudvfs.OpSpec{
		Name: "Gelu", Shape: "demo", Scenario: 0, // Compute / PingPongFree-Indep
		Blocks: 6, LoadBytes: 4 << 20, StoreBytes: 4 << 20,
		CoreCycles: 3000, CorePipe: 1 /* vector */, L2Hit: 0.5, PrePostTime: 2,
	}
	if err := gelu.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. "Profile" it at the two endpoints of the DVFS range and fit
	//    the production performance model T(f) = A·f + C/f (Sect. 4.3).
	fit := []npudvfs.MHz{chip.Curve.Min(), chip.Curve.Max()}
	times := []npudvfs.Micros{npudvfs.Micros(chip.Time(&gelu, float64(fit[0]))), npudvfs.Micros(chip.Time(&gelu, float64(fit[1])))}
	model, err := npudvfs.FitPerfModel(fit, times)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Gelu time vs core frequency (measured | Func.2 prediction):")
	for _, f := range chip.Curve.Grid() {
		fmt.Printf("  %4.0f MHz  %7.2f us | %7.2f us\n", f, chip.Time(&gelu, float64(f)), model.Micros(f))
	}
	fs := chip.SaturationMHz(chip.CLoad, gelu.L2Hit)
	fmt.Printf("uncore saturation at %.0f MHz: below it the kernel speeds up with f, above it it does not\n\n", fs)

	// 3. End-to-end: optimize a ResNet-50 training iteration at a 2%
	//    performance-loss target and measure the result.
	lab := npudvfs.NewLab()
	m, err := npudvfs.WorkloadByName("resnet50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizing %s (%d operators)...\n", m.Name, m.Ops())
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg := npudvfs.DefaultStrategyConfig()
	cfg.GA.PopSize = 80 // reduced from the paper's 200x600 for a fast demo
	cfg.GA.Generations = 200
	strat, err := npudvfs.GenerateStrategy(context.Background(), ms.Input(lab.Chip), cfg)
	if err != nil {
		log.Fatal(err)
	}
	base, err := lab.MeasureFixed(m, lab.Chip.Curve.Max())
	if err != nil {
		log.Fatal(err)
	}
	dvfs, err := lab.MeasureStrategy(m, strat, npudvfs.DefaultExecutorOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration: %.1f ms -> %.1f ms (%+.2f%%)\n",
		base.TimeMicros/1000, dvfs.TimeMicros/1000, 100*(dvfs.TimeMicros/base.TimeMicros-1))
	fmt.Printf("AICore:    %.2f W -> %.2f W (%+.2f%%)\n",
		base.MeanCoreW, dvfs.MeanCoreW, 100*(dvfs.MeanCoreW/base.MeanCoreW-1))
	fmt.Printf("SoC:       %.2f W -> %.2f W (%+.2f%%), %d SetFreq/iteration\n",
		base.MeanSoCW, dvfs.MeanSoCW, 100*(dvfs.MeanSoCW/base.MeanSoCW-1), strat.Switches())
}
