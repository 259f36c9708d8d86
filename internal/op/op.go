// Package op defines the operator abstraction shared by the simulated
// NPU, the profiler, the analytical models and the DVFS strategy
// generator.
//
// An operator is described by the quantities the paper's timeline
// analysis (Sect. 4.2) depends on: the number of core-computation blocks
// n, the data moved in (Ld) and out (St) per block, the core cycles per
// block, whether the kernel uses PingPong double-buffering, and whether
// Ld and St are dependent. Besides compute operators, traces also carry
// AICPU operators, communication operators and scheduler-generated idle
// slots, which are insensitive to the AICore frequency (Table 1).
package op

import (
	"fmt"
	"math"
)

// Class partitions trace entries by execution engine (Sect. 6.1).
type Class uint8

const (
	// Compute runs on the AICore and is affected by core frequency.
	Compute Class = iota
	// AICPU runs on the NPU's embedded CPU; AICore-frequency-insensitive.
	AICPU
	// Communication is collective/network time; frequency-insensitive.
	Communication
	// Idle is scheduler-generated gap time between operators.
	Idle
)

var classNames = [...]string{"Compute", "AICPU", "Communication", "Idle"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Scenario identifies which of the four timeline cases of Sect. 4.2 a
// compute kernel falls into.
type Scenario uint8

const (
	// PingPongFreeIndep: no double buffering, Ld and St independent
	// (Sect. 4.2.1, Eq. 5).
	PingPongFreeIndep Scenario = iota
	// PingPongFreeDep: no double buffering, St depends on Ld
	// (Sect. 4.2.2, Eq. 6).
	PingPongFreeDep
	// PingPongIndep: double buffering, Ld and St independent
	// (Sect. 4.2.3, Eq. 7).
	PingPongIndep
	// PingPongDep: double buffering, St depends on Ld
	// (Sect. 4.2.4, Eq. 8).
	PingPongDep
)

var scenarioNames = [...]string{
	"PingPongFree/IndepLdSt",
	"PingPongFree/DepLdSt",
	"PingPong/IndepLdSt",
	"PingPong/DepLdSt",
}

func (s Scenario) String() string {
	if int(s) < len(scenarioNames) {
		return scenarioNames[s]
	}
	return fmt.Sprintf("Scenario(%d)", uint8(s))
}

// PingPong reports whether the scenario uses double buffering.
func (s Scenario) PingPong() bool { return s == PingPongIndep || s == PingPongDep }

// DependentLdSt reports whether St depends on Ld in this scenario.
func (s Scenario) DependentLdSt() bool { return s == PingPongFreeDep || s == PingPongDep }

// Pipe names one hardware pipeline whose utilization the profiler
// reports. Cube, Vector, Scalar and MTE1 are core-domain pipelines;
// MTE2 (move-in, Ld) and MTE3 (move-out, St) cross into the uncore
// domain (Sect. 2.2, 6.1).
type Pipe uint8

const (
	Cube Pipe = iota
	Vector
	Scalar
	MTE1
	MTE2 // Ld: uncore -> core transfers
	MTE3 // St: core -> uncore transfers
	NumPipes
)

var pipeNames = [...]string{"cube", "vector", "scalar", "mte1", "mte2", "mte3"}

func (p Pipe) String() string {
	if int(p) < len(pipeNames) {
		return pipeNames[p]
	}
	return fmt.Sprintf("Pipe(%d)", uint8(p))
}

// CoreDomain reports whether the pipeline belongs to the core frequency
// domain. MTE2/MTE3 transfer rates depend on both domains and are
// treated as uncore pipelines for bottleneck classification.
func (p Pipe) CoreDomain() bool { return p <= MTE1 }

// Spec describes one operator instance in a trace. For Compute
// operators the timeline fields drive the cycle model (Eqs. 5-8); for
// the other classes only FixedTime matters.
type Spec struct {
	// Name identifies the operator type, e.g. "MatMul", "Gelu".
	Name string
	// Shape distinguishes instances of the same type with different
	// input shapes; the paper fits separate models per (type, shape)
	// because power and cycle behaviour differ (Sect. 5.4.1).
	Shape string
	// Class selects the execution engine.
	Class Class
	// Scenario selects the timeline case for Compute operators.
	Scenario Scenario
	// Blocks is n, the number of core-computation blocks.
	Blocks int
	// LoadBytes is the Ld (move-in) volume per block, in bytes.
	LoadBytes float64
	// StoreBytes is the St (move-out) volume per block, in bytes.
	StoreBytes float64
	// CoreCycles is the core-domain computation cycles per block.
	CoreCycles float64
	// CorePipe is the pipeline performing the core computation.
	CorePipe Pipe
	// L2Hit is the fraction of Ld/St traffic served by the L2 cache
	// (0..1). The paper notes that BW_uncore is influenced by the L2
	// bandwidth, HBM bandwidth and L2 hit rate (Sect. 4.1); the hit
	// rate therefore moves the saturation frequency f_s per operator.
	L2Hit float64
	// PrePostTime is frequency-independent pre- and post-processing
	// time in microseconds (dispatch, host-side setup). Dominant for
	// the short operators the paper classifies as no-pipeline bound.
	PrePostTime float64
	// FixedTime is the duration in microseconds of non-Compute
	// entries (AICPU, Communication, Idle).
	FixedTime float64
}

// Key returns the model identity for the operator: operators of the
// same type but different input shapes need individual models.
func (s *Spec) Key() string {
	if s.Shape == "" {
		return s.Name
	}
	return s.Name + "/" + s.Shape
}

// Hash mixes the fields that tell a trace's operators apart in
// practice, for the tables that remember what they computed for an
// operator (traceio's Fingerprint lines within a call, a profiler's
// timing and power terms across its calls). It is not an identity:
// those tables settle equality on the whole spec with ==.
func (s *Spec) Hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(s.Name))<<8 ^ uint64(len(s.Shape))
	if len(s.Name) > 0 {
		h ^= uint64(s.Name[0])<<24 ^ uint64(s.Name[len(s.Name)-1])<<16
	}
	if len(s.Shape) > 0 {
		h ^= uint64(s.Shape[len(s.Shape)-1]) << 32
	}
	h = (h ^ uint64(s.Blocks)) * m
	h = (h ^ math.Float64bits(s.LoadBytes)) * m
	h = (h ^ math.Float64bits(s.StoreBytes)) * m
	h = (h ^ math.Float64bits(s.CoreCycles)) * m
	h = (h ^ math.Float64bits(s.L2Hit)) * m
	h = (h ^ math.Float64bits(s.PrePostTime)) * m
	h = (h ^ math.Float64bits(s.FixedTime)) * m
	// A product's high bits are its mixed ones; the tables index with
	// the low bits.
	return h ^ h>>47
}

// FrequencyScaled reports whether AICore frequency affects this entry's
// duration at all.
func (s *Spec) FrequencyScaled() bool { return s.Class == Compute }

// Validate checks internal consistency of a Spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("op: empty operator name")
	}
	switch s.Class {
	case Compute:
		if s.Blocks <= 0 {
			return fmt.Errorf("op %s: Blocks = %d, must be positive", s.Key(), s.Blocks)
		}
		if s.LoadBytes < 0 || s.StoreBytes < 0 || s.CoreCycles < 0 {
			return fmt.Errorf("op %s: negative timeline quantity", s.Key())
		}
		//lint:allow floateq exact sentinel: validation rejects all-zero work, not near-zero work
		if s.LoadBytes == 0 && s.StoreBytes == 0 && s.CoreCycles == 0 {
			return fmt.Errorf("op %s: compute operator with no work", s.Key())
		}
		if s.CorePipe > MTE1 {
			return fmt.Errorf("op %s: core pipe %v is not in the core domain", s.Key(), s.CorePipe)
		}
		if s.PrePostTime < 0 {
			return fmt.Errorf("op %s: negative PrePostTime", s.Key())
		}
		if s.L2Hit < 0 || s.L2Hit > 1 {
			return fmt.Errorf("op %s: L2Hit = %g outside [0, 1]", s.Key(), s.L2Hit)
		}
	case AICPU, Communication, Idle:
		if s.FixedTime <= 0 {
			return fmt.Errorf("op %s: %v entry needs positive FixedTime", s.Key(), s.Class)
		}
	default:
		return fmt.Errorf("op %s: unknown class %d", s.Key(), s.Class)
	}
	return nil
}
