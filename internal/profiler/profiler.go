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

// Profile is the result of one profiled iteration. It keeps the trace
// it profiled, shared with the caller, and per entry only what was
// measured, in pointer-free columns indexed like Trace: entry i is
// Trace[i], ran at FreqMHz, and started at the sum of DurMicros[:i],
// added up in order.
type Profile struct {
	// FreqMHz is the nominal profiling frequency.
	FreqMHz float64
	// Trace is the profiled trace. It is the caller's slice, not a
	// copy.
	Trace []op.Spec
	// DurMicros is each entry's measured (noisy) duration, µs.
	DurMicros []float64
	// Ratios is each entry's per-pipeline utilization as the PMU
	// reports it. A timing run (Run) carries it; a power run does not.
	Ratios [][op.NumPipes]float64
	// AICoreW and SoCW are each entry's mean power readings, in watts,
	// and TempC the die temperature reading at its end. A power run
	// (RunPower) carries them; a timing run does not.
	AICoreW, SoCW, TempC []float64
	// TotalMicros is the measured iteration duration.
	TotalMicros float64
}

// Len returns the number of profiled entries.
func (p *Profile) Len() int { return len(p.Trace) }

// ComputeMicros returns the summed measured duration of Compute
// entries.
func (p *Profile) ComputeMicros() float64 {
	sum := 0.0
	for i := range p.Trace {
		if p.Trace[i].Class == op.Compute {
			sum += p.DurMicros[i]
		}
	}
	return sum
}

// MeanSoCW returns the time-weighted mean SoC power of the profile.
// Valid only for power-collecting runs; a timing profile reads 0.
func (p *Profile) MeanSoCW() float64 {
	return p.weightedMean(p.SoCW)
}

// MeanAICoreW returns the time-weighted mean AICore power.
func (p *Profile) MeanAICoreW() float64 {
	return p.weightedMean(p.AICoreW)
}

func (p *Profile) weightedMean(xs []float64) float64 {
	if len(xs) != len(p.DurMicros) {
		return 0
	}
	var num, den float64
	for i, d := range p.DurMicros {
		num += xs[i] * d
		den += d
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
// profiles one trace hundreds of times pays per call only for a check
// per entry against where it was found last time, its noise draws and
// the thermal steps. Like its
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

// Run executes the trace once at a fixed core frequency and returns
// the timing profile. Each distinct operator's true duration and ratios
// are worked out once per frequency and chip, then looked up.
func (p *Profiler) Run(trace []op.Spec, fMHz float64) (*Profile, error) {
	prof, _, err := p.run(trace, fMHz, nil)
	return prof, err
}

// run is Run through p's operator table, fitted first to fMHz, the
// chip and, for a power run, the ground g. A power run's profile has
// power columns in place of Ratios, all four columns cut from one
// allocation.
func (p *Profiler) run(trace []op.Spec, fMHz float64, g *powersim.Ground) (*Profile, *opTable, error) {
	if err := p.Chip.Validate(); err != nil {
		return nil, nil, err
	}
	if math.IsNaN(fMHz) || math.IsInf(fMHz, 0) || fMHz <= 0 {
		return nil, nil, fmt.Errorf("profiler: invalid frequency %g MHz, want finite and positive", fMHz)
	}
	t := p.table(fMHz, g)
	n := len(trace)
	prof := &Profile{FreqMHz: fMHz, Trace: trace}
	if g == nil {
		prof.DurMicros = make([]float64, n)
		prof.Ratios = make([][op.NumPipes]float64, n)
	} else {
		cols := make([]float64, 4*n)
		prof.DurMicros, prof.AICoreW = cols[:n:n], cols[n:2*n:2*n]
		prof.SoCW, prof.TempC = cols[2*n:3*n:3*n], cols[3*n:]
	}
	noisy := p.Sensor != nil && p.TimeNoiseFrac > 0
	if bad, err := t.resolve(trace, prof.DurMicros, prof.Ratios); err != nil {
		// Entry by entry, the entries before the bad one would have
		// drawn their noise: leave the sensor where that leaves it.
		if noisy {
			p.Sensor.TimeNoises(t.scratch(bad), p.TimeNoiseFrac)
		}
		return nil, nil, fmt.Errorf("profiler: trace entry %d: %w", bad, err)
	}
	if noisy {
		noise := t.scratch(n)
		p.Sensor.TimeNoises(noise, p.TimeNoiseFrac)
		for i, x := range noise {
			prof.DurMicros[i] *= x
		}
	}
	now := 0.0
	for _, d := range prof.DurMicros {
		now += d
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
	// An entry's thermal decay depends on its measured duration alone:
	// take every exp in a loop of its own, off the chain of die
	// temperatures the next loop walks.
	decay := t.scratch(len(trace))
	for i, d := range prof.DurMicros {
		decay[i] = th.Decay(units.Micros(d))
	}
	for i := range trace {
		core, soc := t.terms(i, g, &trace[i]).Power(float64(th.DeltaT()))
		th.StepDecay(units.Micros(prof.DurMicros[i]), units.Watt(soc), decay[i])
		if p.Sensor != nil {
			prof.AICoreW[i] = p.Sensor.Power(core)
			prof.SoCW[i] = p.Sensor.Power(soc)
			prof.TempC[i] = p.Sensor.Temp(float64(th.TempC()))
		} else {
			prof.AICoreW[i] = core
			prof.SoCW[i] = soc
			prof.TempC[i] = float64(th.TempC())
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
// therefore looked up as what it now says. What
// the entries were worked out from — the frequency, the profiler's chip
// and the power run's ground with its chip, each by identity and by
// every field, bit for bit — is recorded, and the table starts empty
// when a call brings anything else (a timing-only Run leaves the ground
// alone). The table holds at most opTableCap operators; each further
// new one is worked out on every occurrence.
//
// The table also remembers which trace its last call resolved, by its
// first entry's address and its length, and where each of its entries
// was found. A call over the same trace — every call of a warm-up —
// checks each entry against the operator it was found at last time with
// == and skips the hash and the probe when it holds; an entry edited in
// place since then fails the check and is looked up afresh.
type opTable struct {
	f       float64
	chip    *npu.Chip
	chipV   npu.Chip
	ground  *powersim.Ground // nil until a power run
	groundV powersim.Ground
	gChipV  npu.Chip

	index [2 * opTableCap]int32 // 1 + an entry's position in ops; 0 is empty
	ops   []opEntry
	// at holds, for each entry of the trace the last call resolved, its
	// position in ops, or -1 if it took no entry; last is that trace's
	// first entry, nil if the call failed or ops was emptied since.
	at   []int32
	last *op.Spec
	// buf is a call's scratch: the noise factors of its durations, then
	// the thermal decays of a power run.
	buf []float64
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
	t.last = nil
}

// scratch returns t.buf resized to n.
func (t *opTable) scratch(n int) []float64 {
	if cap(t.buf) < n {
		t.buf = make([]float64, n)
	}
	t.buf = t.buf[:n]
	return t.buf
}

// resolve looks up every entry of trace, writing its true duration to
// dur and, if ratios is not nil, its ratios there, and records where it
// was found in at. On an invalid entry it returns the entry's index and
// the error.
func (t *opTable) resolve(trace []op.Spec, dur []float64, ratios [][op.NumPipes]float64) (int, error) {
	same := len(trace) > 0 && t.last == &trace[0] && len(t.at) == len(trace)
	t.last = nil
	if cap(t.at) < len(trace) {
		t.at = make([]int32, len(trace))
	}
	t.at = t.at[:len(trace)]
	for i := range trace {
		s := &trace[i]
		if same {
			if k := t.at[i]; k >= 0 && t.ops[k].spec == *s {
				dur[i] = t.ops[k].dur
				if ratios != nil {
					ratios[i] = t.ops[k].ratios
				}
				continue
			}
		}
		k, d, r, err := t.timing(s)
		if err != nil {
			return i, err
		}
		t.at[i], dur[i] = k, d
		if ratios != nil {
			ratios[i] = r
		}
	}
	if len(trace) > 0 {
		t.last = &trace[0]
	}
	return 0, nil
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
// trace the last call resolved.
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
	for i := range profiles[0].Trace {
		spec := &profiles[0].Trace[i]
		if spec.Class != op.Compute {
			continue
		}
		s := &Series{Key: spec.Key(), Spec: spec, Count: 1}
		for _, prof := range profiles {
			s.FreqMHz = append(s.FreqMHz, prof.FreqMHz)
			s.Micros = append(s.Micros, prof.DurMicros[i])
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
		for i := range prof.Trace {
			spec := &prof.Trace[i]
			if spec.Class != op.Compute {
				continue
			}
			k := spec.Key()
			sums[k] += prof.DurMicros[i]
			counts[k]++
			if _, ok := out[k]; !ok {
				out[k] = &Series{Key: k, Spec: spec}
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
