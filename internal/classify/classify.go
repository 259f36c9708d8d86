// Package classify implements the operator bottleneck classification
// of Sect. 6.1 (flowchart Fig. 12) and the AICore-frequency
// sensitivity split of Table 1 that drives LFC/HFC staging.
//
// Compute operators are classified from the pipeline-utilization
// ratios reported by the profiler:
//
//   - no-pipeline bound: the ratios sum below 1 — there is free time
//     during execution, typically dispatch-dominated short operators;
//   - latency bound: the maximum ratio is below 0.8 — suboptimal
//     pipeline arrangement (e.g. missing PingPong);
//   - uncore bound: the maximum ratio belongs to an uncore pipeline
//     (MTE2/MTE3, i.e. Ld/St);
//   - core bound: the maximum ratio belongs to a core pipeline (cube,
//     vector, scalar or MTE1).
//
// Core-bound and latency-bound operators are AICore-frequency
// sensitive; Ld/St-bound, AICPU, communication and idle entries are
// insensitive (Table 1). No-pipeline-bound operators spend most of
// their duration on frequency-independent pre/post processing, so
// they are treated as insensitive.
package classify

import (
	"fmt"

	"npudvfs/internal/op"
	"npudvfs/internal/profiler"
)

// Bottleneck is the classified limiting resource of a trace entry.
type Bottleneck uint8

const (
	// NoPipeline marks operators with free time during execution.
	NoPipeline Bottleneck = iota
	// Latency marks operators with suboptimal pipeline arrangement.
	Latency
	// UncoreBound marks Ld/St (MTE2/MTE3) limited operators.
	UncoreBound
	// CoreBound marks cube/vector/scalar/MTE1 limited operators.
	CoreBound
	// AICPUOp, CommunicationOp and IdleSlot mirror the non-compute
	// trace classes, which bypass the ratio analysis.
	AICPUOp
	CommunicationOp
	IdleSlot
)

var bottleneckNames = [...]string{
	"no-pipeline", "latency", "uncore", "core", "aicpu", "communication", "idle",
}

func (b Bottleneck) String() string {
	if int(b) < len(bottleneckNames) {
		return bottleneckNames[b]
	}
	return fmt.Sprintf("Bottleneck(%d)", uint8(b))
}

// LatencyThreshold is the maximum-ratio cutoff below which an operator
// is latency bound (Sect. 6.1).
const LatencyThreshold = 0.8

// Result is the classification of one trace entry.
type Result struct {
	// Bottleneck is the limiting resource.
	Bottleneck Bottleneck
	// BoundPipe is the pipeline with the maximum ratio; only
	// meaningful for UncoreBound and CoreBound results (e.g.
	// cube-bound, Ld-bound).
	BoundPipe op.Pipe
	// Sensitive reports whether the entry's duration responds to
	// AICore frequency per Table 1.
	Sensitive bool
}

// Op classifies one profiled entry, s with the PMU ratios it ran at.
func Op(s *op.Spec, ratios *[op.NumPipes]float64) Result {
	switch s.Class {
	case op.AICPU:
		return Result{Bottleneck: AICPUOp}
	case op.Communication:
		return Result{Bottleneck: CommunicationOp}
	case op.Idle:
		return Result{Bottleneck: IdleSlot}
	}
	sum := 0.0
	maxRatio := 0.0
	maxPipe := op.Cube
	for p, r := range ratios {
		sum += r
		if r > maxRatio {
			maxRatio = r
			maxPipe = op.Pipe(p)
		}
	}
	res := Result{BoundPipe: maxPipe}
	switch {
	case sum < 1:
		res.Bottleneck = NoPipeline
	case maxRatio < LatencyThreshold:
		res.Bottleneck = Latency
		res.Sensitive = true
	case !maxPipe.CoreDomain():
		res.Bottleneck = UncoreBound
	default:
		res.Bottleneck = CoreBound
		res.Sensitive = true
	}
	return res
}

// Trace classifies every entry of a timing profile (Profiler.Run), in
// order. It panics on a profile without PMU ratios, as a power run's.
func Trace(prof *profiler.Profile) []Result {
	if len(prof.Ratios) != prof.Len() {
		panic(fmt.Sprintf("classify: profile of %d entries has %d PMU ratios; classify a timing run", prof.Len(), len(prof.Ratios)))
	}
	out := make([]Result, prof.Len())
	for i := range prof.Trace {
		out[i] = Op(&prof.Trace[i], &prof.Ratios[i])
	}
	return out
}

// Histogram counts classifications by bottleneck type.
func Histogram(results []Result) map[Bottleneck]int {
	h := make(map[Bottleneck]int)
	for _, r := range results {
		h[r.Bottleneck]++
	}
	return h
}
