// Package workload builds synthetic per-iteration operator traces for
// the deep-learning models the paper evaluates: GPT-3, BERT, ResNet-50,
// ResNet-152, VGG19, ViT, AlexNet, ShuffleNetV2+, DeiT-small, and a
// host-bound Llama2 inference step (Sect. 8.4).
//
// The traces stand in for real model executions captured by the CANN
// profiler: the DVFS pipeline only consumes the operator sequence with
// per-operator timeline parameters, so a trace with a realistic mix of
// compute-bound cube operators, memory-bound vector operators, tiny
// dispatch-dominated operators, AICPU/communication operators and idle
// gaps exercises exactly the same code paths as a hardware capture.
// Mirroring the paper's measurements, a majority of operators are
// shorter than 20 µs yet contribute ~1% of total time (Sect. 7.2), and
// a GPT-3 training iteration contains roughly 18,000 operators
// (Sect. 7.4).
//
// Ownership: a constructor (GPT3, BERT, MicroOp, ...) returns a fresh
// model its caller owns and may edit. ByName returns the registry's one
// shared model of that name, built on first use and read-only from then
// on — the serving path resolves a name on every request, cache hits
// included, and a trace is a constant. Nothing in this module writes to
// a Model's Trace after its constructor returns.
package workload

import (
	"fmt"
	"math/rand"

	"npudvfs/internal/op"
)

// Chip-wide execution-rate constants used to convert operator shapes
// into timeline parameters. They describe the same class of hardware
// as npu.Default(): a many-core accelerator with wide cube (matrix)
// and vector units.
const (
	// CubeMACsPerCycle is chip-wide fp16 multiply-accumulates per
	// core cycle across all AICores.
	CubeMACsPerCycle = 524288
	// VecElemsPerCycle is chip-wide vector-lane elements per cycle.
	VecElemsPerCycle = 8192
	// BytesPerElem is the fp16 element size.
	BytesPerElem = 2
)

// Model is a named workload: the operator sequence of one training
// iteration (or one inference step).
type Model struct {
	Name  string
	Trace []op.Spec
}

// Validate checks every spec in the trace.
func (m *Model) Validate() error {
	for i := range m.Trace {
		if err := m.Trace[i].Validate(); err != nil {
			return fmt.Errorf("workload %s: entry %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// Ops returns the number of trace entries.
func (m *Model) Ops() int { return len(m.Trace) }

// builder accumulates a trace with deterministic pseudo-random shape
// variety.
type builder struct {
	trace []op.Spec
	rng   *rand.Rand
}

func newBuilder(seed int64) *builder {
	return &builder{rng: rand.New(rand.NewSource(seed))}
}

func (b *builder) add(s op.Spec) { b.trace = append(b.trace, s) }

// matMul appends a cube matrix multiply C[m,n] = A[m,k] * B[k,n].
// Large matmuls are compute-bound: their core-cycle term dominates the
// Ld/St terms, so they are frequency-sensitive (HFC material).
func (b *builder) matMul(name string, m, k, n int, l2Hit float64) {
	blocks := 8
	macs := float64(m) * float64(k) * float64(n)
	loadB := float64(m*k+k*n) * BytesPerElem
	storeB := float64(m*n) * BytesPerElem
	b.add(op.Spec{
		Name:        name,
		Shape:       fmt.Sprintf("%dx%dx%d", m, k, n),
		Class:       op.Compute,
		Scenario:    op.PingPongIndep,
		Blocks:      blocks,
		LoadBytes:   loadB / float64(blocks),
		StoreBytes:  storeB / float64(blocks),
		CoreCycles:  macs / CubeMACsPerCycle / float64(blocks),
		CorePipe:    op.Cube,
		L2Hit:       l2Hit,
		PrePostTime: 2,
	})
}

// conv2d appends a cube convolution described by its MAC count and
// activation/weight traffic.
func (b *builder) conv2d(name string, batch, inC, outC, outH, outW, kh, kw int, l2Hit float64) {
	blocks := 8
	macs := float64(batch) * float64(outC) * float64(outH) * float64(outW) * float64(inC) * float64(kh) * float64(kw)
	loadB := (float64(batch)*float64(inC)*float64(outH+kh)*float64(outW+kw) +
		float64(outC)*float64(inC)*float64(kh)*float64(kw)) * BytesPerElem
	storeB := float64(batch) * float64(outC) * float64(outH) * float64(outW) * BytesPerElem
	b.add(op.Spec{
		Name:        name,
		Shape:       fmt.Sprintf("b%dc%d-%dx%dx%dk%d", batch, inC, outC, outH, outW, kh),
		Class:       op.Compute,
		Scenario:    op.PingPongIndep,
		Blocks:      blocks,
		LoadBytes:   loadB / float64(blocks),
		StoreBytes:  storeB / float64(blocks),
		CoreCycles:  macs / CubeMACsPerCycle / float64(blocks),
		CorePipe:    op.Cube,
		L2Hit:       l2Hit,
		PrePostTime: 2,
	})
}

// vector appends an element-wise/reduction vector operator over elems
// elements with the given number of input tensors. intensity scales
// core cycles per element (1 = one vector-lane pass). Low L2 hit rates
// make these memory-bound and frequency-insensitive (LFC material).
func (b *builder) vector(name, shape string, elems, inputs int, intensity, l2Hit float64, sc op.Scenario) {
	blocks := 6
	loadB := float64(elems*inputs) * BytesPerElem
	storeB := float64(elems) * BytesPerElem
	b.add(op.Spec{
		Name:        name,
		Shape:       shape,
		Class:       op.Compute,
		Scenario:    sc,
		Blocks:      blocks,
		LoadBytes:   loadB / float64(blocks),
		StoreBytes:  storeB / float64(blocks),
		CoreCycles:  float64(elems) * intensity / VecElemsPerCycle / float64(blocks),
		CorePipe:    op.Vector,
		L2Hit:       l2Hit,
		PrePostTime: 1.5,
	})
}

// tiny appends a dispatch-dominated operator of a few microseconds:
// the sub-20 µs population that is 58.3% of operators but ~0.9% of
// execution time. Pre/post processing dominates, so the summed pipe
// ratios fall below 1 and the classifier marks it no-pipeline bound.
func (b *builder) tiny(name string) {
	// Shapes are quantized to a few buckets so that, as in real
	// captures, the same (type, shape) key recurs many times and one
	// fitted model covers all its instances.
	sizes := [...]int{2048, 4096, 8192, 16384}
	idx := b.rng.Intn(len(sizes))
	elems := sizes[idx]
	b.add(op.Spec{
		Name:        name,
		Shape:       fmt.Sprintf("e%d", elems),
		Class:       op.Compute,
		Scenario:    op.PingPongFreeIndep,
		Blocks:      1,
		LoadBytes:   float64(elems * BytesPerElem),
		StoreBytes:  float64(elems * BytesPerElem),
		CoreCycles:  float64(elems) / VecElemsPerCycle,
		CorePipe:    op.Scalar,
		L2Hit:       0.9,
		PrePostTime: 3 + 1.5*float64(idx),
	})
}

// latencyBound appends a mid-size operator without PingPong whose
// pipeline arrangement leaves every pipe under 80% utilized.
func (b *builder) latencyBound(name, shape string, elems int, l2Hit float64) {
	blocks := 4
	loadB := float64(elems) * BytesPerElem
	storeB := float64(elems) * BytesPerElem
	b.add(op.Spec{
		Name:        name,
		Shape:       shape,
		Class:       op.Compute,
		Scenario:    op.PingPongFreeDep,
		Blocks:      blocks,
		LoadBytes:   loadB / float64(blocks),
		StoreBytes:  storeB / float64(blocks),
		CoreCycles:  float64(elems) * 1.2 / VecElemsPerCycle / float64(blocks),
		CorePipe:    op.Vector,
		L2Hit:       l2Hit,
		PrePostTime: 1,
	})
}

func (b *builder) comm(name string, micros float64) {
	b.add(op.Spec{Name: name, Class: op.Communication, FixedTime: micros})
}

func (b *builder) aicpu(name string, micros float64) {
	b.add(op.Spec{Name: name, Class: op.AICPU, FixedTime: micros})
}

func (b *builder) idle(micros float64) {
	b.add(op.Spec{Name: "idle", Class: op.Idle, FixedTime: micros})
}

// model wraps the accumulated trace.
func (b *builder) model(name string) *Model {
	return &Model{Name: name, Trace: b.trace}
}
