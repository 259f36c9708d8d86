// Package profiler plays the role of the CANN profiler and lpmi_tool
// in the paper's workflow (Fig. 1, Sect. 6): it executes a workload
// trace on the simulated NPU at a chosen core frequency and reports,
// per operator, the measured execution time, the per-pipeline
// utilization ratios, and optionally the power and temperature
// telemetry needed for power modeling.
//
// Measured durations carry multiplicative sensor noise, so models
// fitted from profiles face realistic measurement error, as on real
// hardware.
package profiler

import (
	"fmt"
	"math"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
)

// Record is one profiled trace entry.
type Record struct {
	// Index is the position of the entry in the trace.
	Index int
	// Spec points at the operator description.
	Spec *op.Spec
	// StartMicros is the start offset within the iteration, µs.
	StartMicros float64
	// DurMicros is the measured (noisy) duration, µs.
	DurMicros float64
	// FreqMHz is the core frequency while the entry executed.
	FreqMHz float64
	// Ratios is the per-pipeline utilization reported by the PMU.
	Ratios [op.NumPipes]float64
	// AICoreW and SoCW are mean power readings over the entry, in
	// watts; populated only by power-collecting runs.
	AICoreW, SoCW float64
	// TempC is the die temperature reading at the end of the entry;
	// populated only by power-collecting runs.
	TempC float64
}

// Profile is the result of one profiled iteration.
type Profile struct {
	// FreqMHz is the nominal profiling frequency.
	FreqMHz float64
	// Records holds one entry per trace element, in order.
	Records []Record
	// TotalMicros is the measured iteration duration.
	TotalMicros float64
}

// ComputeMicros returns the summed measured duration of Compute
// entries.
func (p *Profile) ComputeMicros() float64 {
	sum := 0.0
	for i := range p.Records {
		if p.Records[i].Spec.Class == op.Compute {
			sum += p.Records[i].DurMicros
		}
	}
	return sum
}

// MeanSoCW returns the time-weighted mean SoC power of the profile.
// Valid only for power-collecting runs.
func (p *Profile) MeanSoCW() float64 {
	return p.weightedMean(func(r *Record) float64 { return r.SoCW })
}

// MeanAICoreW returns the time-weighted mean AICore power.
func (p *Profile) MeanAICoreW() float64 {
	return p.weightedMean(func(r *Record) float64 { return r.AICoreW })
}

func (p *Profile) weightedMean(get func(*Record) float64) float64 {
	var num, den float64
	for i := range p.Records {
		r := &p.Records[i]
		num += get(r) * r.DurMicros
		den += r.DurMicros
	}
	//lint:allow floateq exact sentinel: division guard against a zero-duration profile
	if den == 0 {
		return 0
	}
	return num / den
}

// Profiler executes traces on a chip and records what real tooling
// would observe.
type Profiler struct {
	Chip *npu.Chip
	// Sensor supplies measurement noise; nil means noise-free
	// profiling (useful in tests).
	Sensor *powersim.Sensor
	// TimeNoiseFrac is the 1-sigma relative duration noise when a
	// Sensor is present.
	TimeNoiseFrac float64
}

// New returns a Profiler with 1% duration noise from the given seed.
func New(chip *npu.Chip, seed int64) *Profiler {
	return &Profiler{Chip: chip, Sensor: powersim.NewSensor(seed), TimeNoiseFrac: 0.01}
}

// NewNoiseless returns a Profiler whose measurements are exact.
func NewNoiseless(chip *npu.Chip) *Profiler {
	return &Profiler{Chip: chip}
}

func (p *Profiler) measure(trueDur float64) float64 {
	if p.Sensor == nil || p.TimeNoiseFrac <= 0 {
		return trueDur
	}
	return trueDur * p.Sensor.TimeNoise(p.TimeNoiseFrac)
}

// Run executes the trace once at a fixed core frequency and returns
// the timing profile.
func (p *Profiler) Run(trace []op.Spec, fMHz float64) (*Profile, error) {
	if err := p.Chip.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(fMHz) || math.IsInf(fMHz, 0) || fMHz <= 0 {
		return nil, fmt.Errorf("profiler: invalid frequency %g MHz, want finite and positive", fMHz)
	}
	prof := &Profile{FreqMHz: fMHz, Records: make([]Record, len(trace))}
	now := 0.0
	for i := range trace {
		s := &trace[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("profiler: trace entry %d: %w", i, err)
		}
		t, ratios := p.Chip.TimeRatios(s, fMHz)
		dur := p.measure(t)
		prof.Records[i] = Record{
			Index:       i,
			Spec:        s,
			StartMicros: now,
			DurMicros:   dur,
			FreqMHz:     fMHz,
			Ratios:      ratios,
		}
		now += dur
	}
	prof.TotalMicros = now
	return prof, nil
}

// RunPower executes the trace once at a fixed frequency while sampling
// power and temperature, advancing the thermal state across operators.
// The thermal state is shared across calls so repeated iterations warm
// the chip up, as in the paper's "collect once training is stable"
// methodology. An operator's power terms do not depend on ΔT, so each
// distinct operator's are evaluated once per call (termsTable) and
// serve both domains; only the ΔT they are read at changes as the die
// warms.
func (p *Profiler) RunPower(trace []op.Spec, fMHz float64, g *powersim.Ground, th *thermal.State) (*Profile, error) {
	if g == nil || th == nil {
		return nil, fmt.Errorf("profiler: RunPower needs ground truth and thermal state")
	}
	prof, err := p.Run(trace, fMHz)
	if err != nil {
		return nil, err
	}
	var seen termsTable
	for i := range prof.Records {
		r := &prof.Records[i]
		core, soc := seen.terms(g, r.Spec, fMHz).Power(float64(th.DeltaT()))
		th.Step(units.Micros(r.DurMicros), units.Watt(soc))
		if p.Sensor != nil {
			r.AICoreW = p.Sensor.Power(core)
			r.SoCW = p.Sensor.Power(soc)
			r.TempC = p.Sensor.Temp(float64(th.TempC()))
		} else {
			r.AICoreW = core
			r.SoCW = soc
			r.TempC = float64(th.TempC())
		}
	}
	return prof, nil
}

// termsTable remembers, for the length of one RunPower call, the power
// terms of the operators that call has already evaluated. A trace
// repeats a few operators many times — 97 of ViT's 721 are distinct —
// and looking terms up costs a fraction of evaluating them. The table
// is open-addressed and stops taking operators at termsTableCap, after
// which each further new one is evaluated into spare. Equality is
// op.Spec's ==: a spec with a NaN never matches and is evaluated
// afresh, and +0 matches -0, which every term treats alike. It lives in
// RunPower's frame, so nothing outlasts the call: a trace edited
// between calls, or a Ground shared across goroutines, is always read
// afresh.
type termsTable struct {
	slots [2 * termsTableCap]termsSlot
	n     int
	spare powersim.Terms
}

const termsTableCap = 256

// termsSlot is one remembered operator: the spec it was evaluated for
// (an element of the trace being profiled), that spec's hash and its
// terms. An empty slot has a nil spec.
type termsSlot struct {
	spec  *op.Spec
	hash  uint64
	terms powersim.Terms
}

// terms returns g's power terms for s at fMHz. At most half the slots
// are ever taken, so the probe ends.
func (t *termsTable) terms(g *powersim.Ground, s *op.Spec, fMHz float64) *powersim.Terms {
	hash := s.Hash()
	i := hash % uint64(len(t.slots))
	for ; t.slots[i].spec != nil; i = (i + 1) % uint64(len(t.slots)) {
		if slot := &t.slots[i]; slot.hash == hash && *slot.spec == *s {
			return &slot.terms
		}
	}
	if t.n == termsTableCap {
		t.spare = g.Terms(s, fMHz)
		return &t.spare
	}
	t.slots[i] = termsSlot{spec: s, hash: hash, terms: g.Terms(s, fMHz)}
	t.n++
	return &t.slots[i].terms
}

// WarmupIterations repeats RunPower until the die temperature settles
// within tolC of the thermal equilibrium for the iteration's mean SoC
// power (or maxIters is reached), and returns the last, thermally
// stable profile. This mirrors the paper's "collect data once stable
// training is achieved" methodology.
func (p *Profiler) WarmupIterations(trace []op.Spec, fMHz float64, g *powersim.Ground, th *thermal.State, maxIters int, tolC float64) (*Profile, error) {
	var last *Profile
	for i := 0; i < maxIters; i++ {
		prof, err := p.RunPower(trace, fMHz, g, th)
		if err != nil {
			return nil, err
		}
		last = prof
		if abs(float64(th.TempC()-th.Equilibrium(units.Watt(prof.MeanSoCW())))) < tolC {
			break
		}
	}
	return last, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Series groups mean measured durations by operator key across several
// profiles: the (frequency, time) points the performance model is
// fitted from. Only Compute operators are included.
type Series struct {
	// Key identifies the operator (type/shape).
	Key string
	// Spec is a representative spec for the key.
	Spec *op.Spec
	// FreqMHz and Micros are parallel: mean measured duration per
	// profiling frequency.
	FreqMHz []float64
	Micros  []float64
	// Count is the number of instances of the key per iteration.
	Count int
}

// BuildInstanceSeries builds one series per Compute trace position
// across several profiles of the same trace: the per-operator fitting
// unit the paper uses (each operator instance gets its own model; the
// ShuffleNetV2Plus fit-cost figure counts 4,343 such fits). The
// returned slice is ordered by trace index.
func BuildInstanceSeries(profiles []*Profile) []*Series {
	if len(profiles) == 0 {
		return nil
	}
	var out []*Series
	for i := range profiles[0].Records {
		spec := profiles[0].Records[i].Spec
		if spec.Class != op.Compute {
			continue
		}
		s := &Series{Key: spec.Key(), Spec: spec, Count: 1}
		for _, prof := range profiles {
			s.FreqMHz = append(s.FreqMHz, prof.FreqMHz)
			s.Micros = append(s.Micros, prof.Records[i].DurMicros)
		}
		out = append(out, s)
	}
	return out
}

// BuildSeries aggregates profiles (one per frequency) into per-key
// duration series. Profiles must all cover the same trace.
func BuildSeries(profiles []*Profile) map[string]*Series {
	out := make(map[string]*Series)
	for _, prof := range profiles {
		sums := make(map[string]float64)
		counts := make(map[string]int)
		for i := range prof.Records {
			r := &prof.Records[i]
			if r.Spec.Class != op.Compute {
				continue
			}
			k := r.Spec.Key()
			sums[k] += r.DurMicros
			counts[k]++
			if _, ok := out[k]; !ok {
				out[k] = &Series{Key: k, Spec: r.Spec}
			}
		}
		for k, sum := range sums {
			s := out[k]
			s.FreqMHz = append(s.FreqMHz, prof.FreqMHz)
			s.Micros = append(s.Micros, sum/float64(counts[k]))
			s.Count = counts[k]
		}
	}
	return out
}
