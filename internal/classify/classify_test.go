package classify

import (
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/profiler"
	"npudvfs/internal/workload"
)

// ratiosAt returns the PMU ratios of spec at f MHz on the default chip.
func ratiosAt(spec *op.Spec, f float64) *[op.NumPipes]float64 {
	r := npu.Default().Ratios(spec, f)
	return &r
}

func TestNonComputeClasses(t *testing.T) {
	cases := []struct {
		class op.Class
		want  Bottleneck
	}{
		{op.AICPU, AICPUOp},
		{op.Communication, CommunicationOp},
		{op.Idle, IdleSlot},
	}
	for _, tc := range cases {
		r := Op(&op.Spec{Name: "x", Class: tc.class, FixedTime: 10}, &[op.NumPipes]float64{})
		if r.Bottleneck != tc.want {
			t.Errorf("%v: got %v, want %v", tc.class, r.Bottleneck, tc.want)
		}
		if r.Sensitive {
			t.Errorf("%v must be frequency-insensitive", tc.class)
		}
	}
}

func TestCoreBoundSensitive(t *testing.T) {
	// Compute-heavy cube op with PingPong: cube ratio near 1.
	spec := op.Spec{
		Name: "MatMul", Class: op.Compute, Scenario: op.PingPongIndep,
		Blocks: 16, LoadBytes: 1024, StoreBytes: 1024, CoreCycles: 1e6,
		CorePipe: op.Cube, L2Hit: 0.9,
	}
	r := Op(&spec, ratiosAt(&spec, 1500))
	if r.Bottleneck != CoreBound {
		t.Fatalf("got %v, want core", r.Bottleneck)
	}
	if r.BoundPipe != op.Cube {
		t.Errorf("bound pipe = %v, want cube", r.BoundPipe)
	}
	if !r.Sensitive {
		t.Error("core-bound must be sensitive (Table 1)")
	}
}

func TestUncoreBoundInsensitive(t *testing.T) {
	// Memory-streaming op: MTE2 dominates.
	spec := op.Spec{
		Name: "Gather", Class: op.Compute, Scenario: op.PingPongIndep,
		Blocks: 16, LoadBytes: 8 << 20, StoreBytes: 2048, CoreCycles: 100,
		CorePipe: op.Vector, L2Hit: 0,
	}
	r := Op(&spec, ratiosAt(&spec, 1500))
	if r.Bottleneck != UncoreBound {
		t.Fatalf("got %v (pipe %v), want uncore", r.Bottleneck, r.BoundPipe)
	}
	if r.BoundPipe != op.MTE2 {
		t.Errorf("bound pipe = %v, want mte2 (Ld-bound)", r.BoundPipe)
	}
	if r.Sensitive {
		t.Error("Ld-bound must be insensitive (Table 1)")
	}
}

func TestNoPipelineBound(t *testing.T) {
	// Dispatch-dominated tiny op: pre/post dwarfs pipeline work.
	spec := op.Spec{
		Name: "Cast", Class: op.Compute, Scenario: op.PingPongFreeIndep,
		Blocks: 1, LoadBytes: 4096, StoreBytes: 4096, CoreCycles: 10,
		CorePipe: op.Scalar, L2Hit: 0.9, PrePostTime: 50,
	}
	r := Op(&spec, ratiosAt(&spec, 1500))
	if r.Bottleneck != NoPipeline {
		t.Fatalf("got %v, want no-pipeline", r.Bottleneck)
	}
	if r.Sensitive {
		t.Error("no-pipeline bound treated as insensitive")
	}
}

func TestLatencyBound(t *testing.T) {
	// PingPong-free with balanced Ld/core/St: every pipe well below
	// the 0.8 threshold but the sum above 1.
	chip := npu.Default()
	spec := op.Spec{
		Name: "GatherV2", Class: op.Compute, Scenario: op.PingPongFreeDep,
		Blocks: 8, LoadBytes: 2 << 20, StoreBytes: 2 << 20,
		CoreCycles: 4000, CorePipe: op.Vector, L2Hit: 0.5,
	}
	ratios := ratiosAt(&spec, 1500)
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	if sum < 1 {
		t.Skipf("premise broken: ratios sum %.2f < 1", sum)
	}
	r := Op(&spec, ratios)
	if r.Bottleneck != Latency {
		t.Fatalf("got %v (ratios %v), want latency", r.Bottleneck, *ratios)
	}
	if !r.Sensitive {
		t.Error("latency-bound must be sensitive (Table 1)")
	}
	_ = chip
}

func TestTraceAndHistogramOnRealWorkload(t *testing.T) {
	chip := npu.Default()
	p := profiler.NewNoiseless(chip)
	m := workload.GPT3()
	prof, err := p.Run(m.Trace, 1800)
	if err != nil {
		t.Fatal(err)
	}
	results := Trace(prof)
	if len(results) != prof.Len() {
		t.Fatalf("got %d results, want %d", len(results), prof.Len())
	}
	h := Histogram(results)
	// A GPT-3 iteration must exhibit the full taxonomy: core-bound
	// matmuls, uncore-bound vector ops, no-pipeline tiny ops, and the
	// non-compute classes.
	for _, b := range []Bottleneck{CoreBound, UncoreBound, NoPipeline, AICPUOp, CommunicationOp, IdleSlot} {
		if h[b] == 0 {
			t.Errorf("no %v entries classified in GPT-3 trace (histogram %v)", b, h)
		}
	}
	// Sensitive and insensitive populations must both be substantial
	// for DVFS staging to matter.
	sens := 0
	for _, r := range results {
		if r.Sensitive {
			sens++
		}
	}
	frac := float64(sens) / float64(len(results))
	if frac < 0.1 || frac > 0.9 {
		t.Errorf("sensitive fraction = %.2f, want a real mix", frac)
	}
}

func TestBottleneckStrings(t *testing.T) {
	if NoPipeline.String() != "no-pipeline" || CoreBound.String() != "core" {
		t.Error("bottleneck names wrong")
	}
}
