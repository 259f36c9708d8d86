// Package experiments regenerates every table and figure of the
// paper's evaluation (Sect. 7) plus the discussion experiments of
// Sect. 8 on the simulated NPU. Each experiment returns a typed result
// with a text rendering, and is also wired to a benchmark in the
// repository root so `go test -bench` reproduces the full evaluation.
package experiments

import (
	"sync"

	"npudvfs/internal/pipeline"
	"npudvfs/internal/vf"
)

// Lab and Models are the pipeline's, named here for the benchmark,
// which reads them through this package.
type (
	Lab    = pipeline.Lab
	Models = pipeline.Models
)

// NewLab returns the reference laboratory configuration.
func NewLab() *Lab { return pipeline.NewLab() }

// FitFreqs are the reference chip's power-model fit frequencies (1000
// and 1800 MHz, Sect. 7.3). Lab reads its own chip's vf.Plan; this copy
// stays for the benchmark's mirror of BuildModels until it is retired.
var FitFreqs = vf.Ascend().Plan().PowerFit

// PerfFitFreqs are the reference chip's grid endpoints, from which
// Func. 2's two parameters are solved exactly, as in the paper. Kept
// for the benchmark's mirror, as FitFreqs.
var PerfFitFreqs = vf.Ascend().Plan().PerfFit

// Harness runs the experiments on the embedded Lab.
type Harness struct {
	*Lab

	// Parallel bounds RunSuite's and the experiments' workers (0 or 1:
	// serial). Each work item seeds its own randomness: results agree.
	Parallel int

	gptOnce   sync.Once
	gptModels *Models
	gptErr    error
}

// workers is Parallel clamped to at least one serial worker.
func (l *Harness) workers() int {
	if l.Parallel < 1 {
		return 1
	}
	return l.Parallel
}
