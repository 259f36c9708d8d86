// Porting the methodology to different hardware (Sect. 8.3): the
// performance model only assumes the L1/L2/HBM memory-hierarchy
// abstraction and the power model only physics, so both transfer to
// any accelerator with the same structure. This example defines a
// GPU-like accelerator — fewer, wider cores, higher HBM bandwidth, a
// wider voltage range — plus its own workload, and runs the full
// pipeline on it.
//
//	go run ./examples/custom-accelerator
package main

import (
	"context"
	"fmt"
	"log"

	"npudvfs"
	"npudvfs/internal/vf"
)

func main() {
	// 1. Describe the custom accelerator. A "GPU-like" part: 16 wide
	//    cores, 2.4 TB/s HBM, 6 TB/s L2, DVFS from 800 to 2000 MHz
	//    with the voltage knee at 1400 MHz.
	//lint:allow unitcheck custom chip definition: this example authors its own V-F table
	curve, err := vf.New(800, 2000, 100, 1400, 0.70, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	chip := &npudvfs.Chip{
		Name:   "gpu-like",
		Cores:  16,
		CLoad:  128,
		CStore: 128,
		BWL2:   6000 * 1000, // bytes/µs
		BWHBM:  2400 * 1000,
		T0:     0.15,
		Curve:  curve,
	}
	if err := chip.Validate(); err != nil {
		log.Fatal(err)
	}
	ground := npudvfs.DefaultGroundTruth(chip)
	ground.UncoreIdle = 120 // a different platform, different floor
	thermalParams := npudvfs.DefaultThermal()
	thermalParams.KCPerWatt = 0.09

	lab := npudvfs.NewLabFor(chip, ground, thermalParams, 7)

	// 2. A custom workload: alternate compute-bound GEMM phases and
	//    memory-bound embedding/normalization phases.
	var trace []npudvfs.OpSpec
	for layer := 0; layer < 40; layer++ {
		trace = append(trace,
			npudvfs.OpSpec{
				Name: "GEMM", Shape: "8kx8k", Blocks: 8,
				Scenario:  2, // PingPong, independent Ld/St
				LoadBytes: 16 << 20 / 8, StoreBytes: 8 << 20 / 8,
				CoreCycles: 3.5e6 / 8, CorePipe: 0 /* cube */, L2Hit: 0.8, PrePostTime: 2,
			},
			npudvfs.OpSpec{
				Name: "EmbeddingLookup", Shape: "64M", Blocks: 8,
				LoadBytes: 128 << 20 / 8, StoreBytes: 32 << 20 / 8,
				CoreCycles: 2000, CorePipe: 1 /* vector */, L2Hit: 0.1, PrePostTime: 2,
			},
			npudvfs.OpSpec{
				Name: "RMSNorm", Shape: "16M", Blocks: 6,
				LoadBytes: 32 << 20 / 6, StoreBytes: 32 << 20 / 6,
				CoreCycles: 4000, CorePipe: 1, L2Hit: 0.2, PrePostTime: 2,
			},
		)
	}
	m := &npudvfs.Workload{Name: "custom-mixed", Trace: trace}
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}

	// 3. Same pipeline as on the reference chip: model, search,
	//    measure. Every frequency it calibrates, fits, validates or
	//    seeds the search at comes from this chip's grid
	//    (curve.Plan()), not from the reference chip's.
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		log.Fatal(err)
	}
	cfg := npudvfs.DefaultStrategyConfig()
	cfg.GA.PopSize = 80
	cfg.GA.Generations = 200
	strat, err := npudvfs.GenerateStrategy(context.Background(), ms.Input(lab.Chip), cfg)
	if err != nil {
		log.Fatal(err)
	}
	base, err := lab.MeasureFixed(m, chip.Curve.Max())
	if err != nil {
		log.Fatal(err)
	}
	dvfs, err := lab.MeasureStrategy(m, strat, npudvfs.DefaultExecutorOptions())
	if err != nil {
		log.Fatal(err)
	}
	plan := curve.Plan()
	fmt.Printf("custom accelerator %q: grid %v MHz\n", chip.Name, []npudvfs.MHz{curve.Min(), curve.Max()})
	fmt.Printf("plan: fit %v, mid %v, validate %v, equilibrium %v, prior LFC %v MHz\n",
		plan.PowerFit, plan.Mid, plan.Eval, plan.Equilibrium, plan.PriorLFC)
	fmt.Printf("iteration: %.2f ms -> %.2f ms (%+.2f%%)\n",
		base.TimeMicros/1000, dvfs.TimeMicros/1000, 100*(dvfs.TimeMicros/base.TimeMicros-1))
	fmt.Printf("AICore:    %.2f W -> %.2f W (%+.2f%%)\n",
		base.MeanCoreW, dvfs.MeanCoreW, 100*(dvfs.MeanCoreW/base.MeanCoreW-1))
	fmt.Printf("SoC:       %.2f W -> %.2f W (%+.2f%%), %d SetFreq/iteration\n",
		base.MeanSoCW, dvfs.MeanSoCW, 100*(dvfs.MeanSoCW/base.MeanSoCW-1), strat.Switches())
}
