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
//
// A Profiler remembers, across its calls, what each distinct operator
// it has profiled works out to (see opTable), so a warm-up that
// profiles one trace hundreds of times pays per call only for a
// lookup per entry, its noise draws and the thermal steps. Like its
// Sensor, that memory is per-run mutable state: use one Profiler per
// goroutine, and note that a copied Profiler value shares both with
// the original.
type Profiler struct {
	Chip *npu.Chip
	// Sensor supplies measurement noise; nil means noise-free
	// profiling (useful in tests).
	Sensor *powersim.Sensor
	// TimeNoiseFrac is the 1-sigma relative duration noise when a
	// Sensor is present.
	TimeNoiseFrac float64

	ops *opTable // allocated by the first call
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
// the timing profile. Each distinct operator's true duration and ratios
// are worked out once per frequency and chip, then looked up.
func (p *Profiler) Run(trace []op.Spec, fMHz float64) (*Profile, error) {
	prof, _, err := p.run(trace, fMHz, nil)
	return prof, err
}

// run is Run through p's operator table, fitted first to fMHz, the
// chip and, for a power run, the ground g; for a power run it also
// fills the table's at for this trace.
func (p *Profiler) run(trace []op.Spec, fMHz float64, g *powersim.Ground) (*Profile, *opTable, error) {
	if err := p.Chip.Validate(); err != nil {
		return nil, nil, err
	}
	if math.IsNaN(fMHz) || math.IsInf(fMHz, 0) || fMHz <= 0 {
		return nil, nil, fmt.Errorf("profiler: invalid frequency %g MHz, want finite and positive", fMHz)
	}
	t := p.table(fMHz, g)
	if g != nil {
		if cap(t.at) < len(trace) {
			t.at = make([]int32, len(trace))
		}
		t.at = t.at[:len(trace)]
	}
	prof := &Profile{FreqMHz: fMHz, Records: make([]Record, len(trace))}
	now := 0.0
	for i := range trace {
		s := &trace[i]
		k, trueDur, ratios, err := t.timing(s)
		if err != nil {
			return nil, nil, fmt.Errorf("profiler: trace entry %d: %w", i, err)
		}
		if g != nil {
			t.at[i] = k
		}
		// Field by field: the Records are zeroed, and a Record literal
		// would be built aside and then copied in.
		r := &prof.Records[i]
		r.Index, r.Spec, r.StartMicros, r.FreqMHz, r.Ratios = i, s, now, fMHz, ratios
		r.DurMicros = p.measure(trueDur)
		now += r.DurMicros
	}
	prof.TotalMicros = now
	return prof, t, nil
}

// RunPower executes the trace once at a fixed frequency while sampling
// power and temperature, advancing the thermal state across operators.
// The thermal state is shared across calls so repeated iterations warm
// the chip up, as in the paper's "collect once training is stable"
// methodology. An operator's power terms do not depend on ΔT, so each
// distinct operator's are evaluated once — kept in p's operator table
// for every later call at this frequency on this chip and ground — and
// serve both domains; only the ΔT they are read at changes as the die
// warms.
func (p *Profiler) RunPower(trace []op.Spec, fMHz float64, g *powersim.Ground, th *thermal.State) (*Profile, error) {
	if g == nil || g.Chip == nil || th == nil {
		return nil, fmt.Errorf("profiler: RunPower needs ground truth and thermal state")
	}
	prof, t, err := p.run(trace, fMHz, g)
	if err != nil {
		return nil, err
	}
	for i := range prof.Records {
		r := &prof.Records[i]
		core, soc := t.terms(i, g, r.Spec).Power(float64(th.DeltaT()))
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

// opTable remembers what a Profiler's calls have worked out for each
// distinct operator at one frequency: that its spec validates, its
// duration and utilization ratios (Chip.TimeRatios) and, once a
// RunPower has needed them, its power terms (Ground.Terms). A trace
// repeats a few operators many times — 97 of ViT's 721 are distinct —
// and a warm-up profiles the same trace hundreds of times, so looking
// an operator up costs a fraction of working it out.
//
// Entries are keyed by the spec's value, not its address: op.Spec.Hash
// and then ==, under which a spec with a NaN never matches (it is
// worked out afresh each time and never takes an entry) and +0 matches
// -0, which every result treats alike. A trace edited between calls is
// therefore looked up as what it now says. What the entries were
// worked out from — the frequency, the profiler's chip and the power
// run's ground with its chip, each by identity and by every field, bit
// for bit — is recorded, and the table starts empty when a call brings
// anything else (a timing-only Run leaves the ground alone). The table
// holds at most opTableCap operators; each further new one is worked
// out on every occurrence.
type opTable struct {
	f       float64
	chip    *npu.Chip
	chipV   npu.Chip
	ground  *powersim.Ground // nil until a power run
	groundV powersim.Ground
	gChipV  npu.Chip

	index [2 * opTableCap]int32 // 1 + an entry's position in ops; 0 is empty
	ops   []opEntry
	// at holds, for each entry of the trace the last power run
	// profiled, its position in ops, or -1 if it took no entry.
	at []int32
	// spare holds the terms of an operator that took no entry, for the
	// moment they are read.
	spare powersim.Terms
}

const opTableCap = 256

// opEntry is one remembered operator: a copy of its spec, the spec's
// hash, its timing at the table's frequency, and its power terms once
// hasTerms.
type opEntry struct {
	spec     op.Spec
	hash     uint64
	dur      float64
	ratios   [op.NumPipes]float64
	terms    powersim.Terms
	hasTerms bool
}

// table returns p's operator table, emptied first if fMHz, p.Chip or a
// non-nil g is not what its entries were worked out from.
func (p *Profiler) table(fMHz float64, g *powersim.Ground) *opTable {
	t := p.ops
	if t == nil {
		// Room for the distinct operators of most traces (97–107 for 8
		// of the 10 registry workloads), so a one-off Run does not pay
		// for the slice to grow.
		t = &opTable{ops: make([]opEntry, 0, opTableCap/2)}
		p.ops = t
	}
	if t.chip != p.Chip || math.Float64bits(t.f) != math.Float64bits(fMHz) || !sameChip(&t.chipV, p.Chip) ||
		g != nil && t.ground != nil && (t.ground != g || !sameGround(&t.groundV, g) || !sameChip(&t.gChipV, g.Chip)) {
		t.reset(fMHz, p.Chip)
	}
	if g != nil && t.ground == nil {
		t.ground, t.groundV, t.gChipV = g, *g, *g.Chip
	}
	return t
}

func (t *opTable) reset(fMHz float64, chip *npu.Chip) {
	t.f, t.chip, t.chipV = fMHz, chip, *chip
	t.ground = nil
	t.index = [2 * opTableCap]int32{}
	t.ops = t.ops[:0]
}

// sameChip and sameGround report whether a and b agree in every field,
// floats bit for bit: == alone would take a zero for one of the other
// sign.
func sameChip(a, b *npu.Chip) bool {
	return *a == *b && chipBits(a) == chipBits(b)
}

func sameGround(a, b *powersim.Ground) bool {
	return *a == *b && groundBits(a) == groundBits(b)
}

func chipBits(c *npu.Chip) [6]uint64 {
	return [...]uint64{
		math.Float64bits(c.CLoad), math.Float64bits(c.CStore),
		math.Float64bits(c.BWL2), math.Float64bits(c.BWHBM), math.Float64bits(c.T0),
		math.Float64bits(c.UncoreScale),
	}
}

func groundBits(g *powersim.Ground) [13]uint64 {
	return [...]uint64{
		math.Float64bits(g.BetaCore), math.Float64bits(g.ThetaCore), math.Float64bits(g.GammaCore),
		math.Float64bits(g.AlphaScale), math.Float64bits(g.DriftFrac),
		math.Float64bits(g.UncoreIdle), math.Float64bits(g.UncoreBWCoef), math.Float64bits(g.UncoreIdleDyn),
		math.Float64bits(g.UncoreCoupling), math.Float64bits(g.UncoreGamma),
		math.Float64bits(g.AICPUPower), math.Float64bits(g.CommPower), math.Float64bits(g.RefMHz),
	}
}

// timing returns the duration and ratios of s from its entry, working
// them out into a new one if the table has none, and the entry's
// position in ops, or -1 if s took none. At most half the index is
// ever taken, so the probe ends.
func (t *opTable) timing(s *op.Spec) (int32, float64, [op.NumPipes]float64, error) {
	hash := s.Hash()
	j := hash % uint64(len(t.index))
	for ; t.index[j] != 0; j = (j + 1) % uint64(len(t.index)) {
		if k := t.index[j] - 1; t.ops[k].hash == hash && t.ops[k].spec == *s {
			return k, t.ops[k].dur, t.ops[k].ratios, nil
		}
	}
	if err := s.Validate(); err != nil {
		return 0, 0, [op.NumPipes]float64{}, err
	}
	dur, ratios := t.chip.TimeRatios(s, t.f)
	// A spec with a NaN never equals itself: an entry for it would
	// never be found.
	if len(t.ops) == opTableCap || *s != *s {
		return -1, dur, ratios, nil
	}
	k := int32(len(t.ops))
	t.index[j] = k + 1
	t.ops = append(t.ops, opEntry{spec: *s, hash: hash, dur: dur, ratios: ratios})
	return k, dur, ratios, nil
}

// terms returns the power terms under g of s, the i-th entry of the
// trace the last power run profiled.
func (t *opTable) terms(i int, g *powersim.Ground, s *op.Spec) *powersim.Terms {
	k := t.at[i]
	if k < 0 {
		t.spare = g.Terms(s, t.f)
		return &t.spare
	}
	e := &t.ops[k]
	if !e.hasTerms {
		e.terms, e.hasTerms = g.Terms(s, t.f), true
	}
	return &e.terms
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
