package core_test

import (
	"context"
	"runtime"
	"testing"

	"npudvfs/internal/classify"
	"npudvfs/internal/core"
	"npudvfs/internal/ga"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/workload"
)

// The reference lab and the inputs it builds for each registry
// workload, shared by the tests of this package; tests run one at a
// time.
var (
	lab       = pipeline.NewLab()
	labInputs = map[string]core.Input{}
)

// labInput returns the search input a cold job builds for a registry
// workload: the reference lab's temperature-aware models and baseline
// profile.
func labInput(t *testing.T, name string) core.Input {
	t.Helper()
	if in, ok := labInputs[name]; ok {
		return in
	}
	m, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lab.BuildModels(m, true)
	if err != nil {
		t.Fatal(err)
	}
	labInputs[name] = ms.Input(lab.Chip)
	return labInputs[name]
}

// labEvaluator builds the evaluator a cold job searches for a registry
// workload, over the stages of the 5 ms FAI.
func labEvaluator(t *testing.T, name string) *core.Evaluator {
	t.Helper()
	in := labInput(t, name)
	cfg := core.DefaultConfig()
	stages, err := preprocess.Stages(in.Profile, classify.Trace(in.Profile), float64(cfg.FAIMicros))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(in, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// allocBytes returns the heap bytes one warm call of f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReusedEngineSearchAllocatesNothing holds a repeat searcher's
// shape to zero allocations on a real problem (DESIGN.md §13): an
// Engine built once on BERT's evaluator, reused for a 200 × 60 search.
// TestEngineRunAllocatesNothing (internal/ga) holds the engine to the
// same on synthetic problems; this one also runs the evaluator's
// partial sums. A regression here is a correctness-of-intent bug long
// before it is a latency bug. One island and one worker, since worker
// goroutines allocate.
func TestReusedEngineSearchAllocatesNothing(t *testing.T) {
	cfg := ga.DefaultConfig()
	cfg.PopSize = 200
	cfg.Generations = 60
	cfg.Islands = 1
	cfg.Workers = 1
	eng, err := ga.New(labEvaluator(t, "bert").Problem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	n := testing.AllocsPerRun(1, func() { _, runErr = eng.Run(context.Background()) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	if n != 0 {
		t.Errorf("a reused Engine's 200 × 60 search on BERT made %v allocations, want 0", n)
	}
}

// TestRunContextStoresOneBytePerGene holds the search as every
// production caller runs it — ga.RunContext at the paper's 200 × 600
// on GPT-3's 1,446 stages, a fresh Engine per call — under 1.5 MB: at
// one byte per gene the engine's slabs are ~0.7 MB (4.8 MB when a gene
// was an int).
func TestRunContextStoresOneBytePerGene(t *testing.T) {
	prob := labEvaluator(t, "gpt3").Problem()
	var runErr error
	n := allocBytes(func() { _, runErr = ga.RunContext(context.Background(), prob, ga.DefaultConfig()) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("ga.RunContext on GPT-3 at 200 × 600: %d bytes", n)
	if n >= 1_500_000 {
		t.Errorf("ga.RunContext on GPT-3 at 200 × 600 allocated %d bytes, want < 1.5 MB (one byte per gene)", n)
	}
}
