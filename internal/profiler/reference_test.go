package profiler

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/vf"
	"npudvfs/internal/workload"
)

// This file carries a verbatim copy of the profiling run and the
// ground-truth power model as they were before RunPower evaluated each
// operator's power terms once (PR 18): Run with separate Chip.Time and
// Chip.Ratios calls, RunPower with separate AICorePower and SoCPower
// calls, and powersim's AICorePower / UncorePower / SoCPower, each
// recomputing Alpha and the voltage. Methods became functions taking
// the receiver first; nothing else changed. The rewrite is only correct
// if it is BIT-identical to these on every input — the models fitted
// from the profiles feed every strategy — so the tests below compare
// math.Float64bits, not values. Keep this copy in sync with nothing;
// only the layout of the Profile it fills follows the production type.

func refCycles(c *npu.Chip, s *op.Spec, fMHz float64) float64 {
	if s.Class != op.Compute {
		panic(fmt.Sprintf("npu: Cycles called for %v operator %s", s.Class, s.Key()))
	}
	l := c.LdCycles(s, fMHz)
	st := c.StCycles(s, fMHz)
	k := s.CoreCycles
	n := float64(s.Blocks)
	switch s.Scenario {
	case op.PingPongFreeIndep:
		return l + st + n*k + (n-1)*math.Max(l, st)
	case op.PingPongFreeDep:
		return n * (l + k + st)
	case op.PingPongIndep:
		return l + k + st + (n-1)*math.Max(l, math.Max(k, st))
	case op.PingPongDep:
		return l + k + st + (n-1)*math.Max(l+st, k)
	default:
		panic(fmt.Sprintf("npu: unknown scenario %v for operator %s", s.Scenario, s.Key()))
	}
}

func refTime(c *npu.Chip, s *op.Spec, fMHz float64) float64 {
	if s.Class != op.Compute {
		return s.FixedTime
	}
	return refCycles(c, s, fMHz)/fMHz + s.PrePostTime
}

func refPipeBusy(c *npu.Chip, s *op.Spec, fMHz float64) [op.NumPipes]float64 {
	var busy [op.NumPipes]float64
	if s.Class != op.Compute {
		return busy
	}
	n := float64(s.Blocks)
	busy[op.MTE2] = n * c.LdCycles(s, fMHz) / fMHz
	busy[op.MTE3] = n * c.StCycles(s, fMHz) / fMHz
	busy[s.CorePipe] += n * s.CoreCycles / fMHz
	return busy
}

func refRatios(c *npu.Chip, s *op.Spec, fMHz float64) [op.NumPipes]float64 {
	var ratios [op.NumPipes]float64
	if s.Class != op.Compute {
		return ratios
	}
	total := refTime(c, s, fMHz)
	if total <= 0 {
		return ratios
	}
	busy := refPipeBusy(c, s, fMHz)
	for p := range busy {
		ratios[p] = busy[p] / total
	}
	return ratios
}

const refFNVOffset64 = 14695981039346656037

func refFNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func refHash01(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

func refSpecHash(s *op.Spec) uint64 {
	h := refFNVString(refFNVOffset64, s.Name)
	if s.Shape != "" {
		h = refFNVString(h, "/")
		h = refFNVString(h, s.Shape)
	}
	return h
}

func refKindFactor(s *op.Spec) float64 { return 0.7 + 0.6*refHash01(refSpecHash(s)) }

func refDriftCoef(s *op.Spec) float64 {
	return 2*refHash01(refFNVString(refSpecHash(s), "/drift")) - 1
}

func refActivity(g *powersim.Ground, s *op.Spec) float64 {
	if s.Class != op.Compute {
		return 0
	}
	r := refRatios(g.Chip, s, g.RefMHz)
	core := r[op.Cube] + r[op.Vector] + r[op.Scalar] + r[op.MTE1]
	mem := r[op.MTE2] + r[op.MTE3]
	act := core + 0.35*mem
	return act * refKindFactor(s)
}

func refAlpha(g *powersim.Ground, s *op.Spec, fMHz float64) float64 {
	base := g.AlphaScale * refActivity(g, s)
	span := float64(g.Chip.Curve.Max() - g.Chip.Curve.Min())
	drift := g.DriftFrac * refDriftCoef(s) * (fMHz - g.RefMHz) / span
	return base * (1 + drift)
}

func refAICoreIdle(g *powersim.Ground, fMHz, deltaT float64) float64 {
	v := float64(g.Chip.Curve.Voltage(units.MHz(fMHz)))
	return g.BetaCore*fMHz*v*v + g.ThetaCore*v + g.GammaCore*deltaT*v
}

func refAICorePower(g *powersim.Ground, s *op.Spec, fMHz, deltaT float64) float64 {
	p := refAICoreIdle(g, fMHz, deltaT)
	if s == nil || s.Class != op.Compute {
		return p
	}
	v := float64(g.Chip.Curve.Voltage(units.MHz(fMHz)))
	return p + refAlpha(g, s, fMHz)*fMHz*v*v
}

func refAchievedBW(g *powersim.Ground, s *op.Spec, fMHz float64) float64 {
	if s == nil || s.Class != op.Compute {
		return 0
	}
	bytes := float64(s.Blocks) * (s.LoadBytes + s.StoreBytes)
	t := refTime(g.Chip, s, fMHz)
	if t <= 0 {
		return 0
	}
	return bytes / t
}

func refUncorePower(g *powersim.Ground, s *op.Spec, fMHz, deltaT float64) float64 {
	p := g.UncoreIdle + g.UncoreGamma*deltaT
	if scale := g.Chip.UncoreScale; scale > 0 {
		p -= g.UncoreIdleDyn * (1 - scale*scale)
	}
	if s == nil {
		return p
	}
	switch s.Class {
	case op.Compute:
		v := float64(g.Chip.Curve.Voltage(units.MHz(fMHz)))
		p += g.UncoreBWCoef * refAchievedBW(g, s, fMHz)
		p += g.UncoreCoupling * refAlpha(g, s, fMHz) * fMHz * v * v
	case op.AICPU:
		p += g.AICPUPower
	case op.Communication:
		p += g.CommPower
	}
	return p
}

func refSoCPower(g *powersim.Ground, s *op.Spec, fMHz, deltaT float64) float64 {
	return refAICorePower(g, s, fMHz, deltaT) + refUncorePower(g, s, fMHz, deltaT)
}

func refMeasure(p *Profiler, trueDur float64) float64 {
	if p.Sensor == nil || p.TimeNoiseFrac <= 0 {
		return trueDur
	}
	return trueDur * p.Sensor.TimeNoise(p.TimeNoiseFrac)
}

func refRun(p *Profiler, trace []op.Spec, fMHz float64) (*Profile, error) {
	if err := p.Chip.Validate(); err != nil {
		return nil, err
	}
	if fMHz <= 0 {
		return nil, fmt.Errorf("profiler: invalid frequency %g MHz", fMHz)
	}
	prof := &Profile{
		FreqMHz: fMHz, Trace: trace,
		DurMicros: make([]float64, len(trace)), Ratios: make([][op.NumPipes]float64, len(trace)),
	}
	now := 0.0
	for i := range trace {
		s := &trace[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("profiler: trace entry %d: %w", i, err)
		}
		dur := refMeasure(p, refTime(p.Chip, s, fMHz))
		prof.DurMicros[i] = dur
		prof.Ratios[i] = refRatios(p.Chip, s, fMHz)
		now += dur
	}
	prof.TotalMicros = now
	return prof, nil
}

func refRunPower(p *Profiler, trace []op.Spec, fMHz float64, g *powersim.Ground, th *thermal.State) (*Profile, error) {
	if g == nil || th == nil {
		return nil, fmt.Errorf("profiler: RunPower needs ground truth and thermal state")
	}
	prof, err := refRun(p, trace, fMHz)
	if err != nil {
		return nil, err
	}
	n := len(trace)
	prof.Ratios = nil
	prof.AICoreW, prof.SoCW, prof.TempC = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range trace {
		spec := &trace[i]
		deltaT := float64(th.DeltaT())
		core := refAICorePower(g, spec, fMHz, deltaT)
		soc := refSoCPower(g, spec, fMHz, deltaT)
		th.Step(units.Micros(prof.DurMicros[i]), units.Watt(soc))
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

// sameBits reports whether a and b are the same float64, bit for bit
// (so -0 differs from +0 and a NaN equals only itself).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRatios(a, b [op.NumPipes]float64) bool {
	for p := range a {
		if !sameBits(a[p], b[p]) {
			return false
		}
	}
	return true
}

// diffProfiles returns the first field where got and want differ in
// any bit, or "". Both must profile the same trace slice.
func diffProfiles(got, want *Profile) string {
	if !sameBits(got.FreqMHz, want.FreqMHz) || !sameBits(got.TotalMicros, want.TotalMicros) {
		return fmt.Sprintf("header: got (%v, %v), want (%v, %v)", got.FreqMHz, got.TotalMicros, want.FreqMHz, want.TotalMicros)
	}
	n := len(want.Trace)
	if len(got.Trace) != n || n > 0 && &got.Trace[0] != &want.Trace[0] {
		return fmt.Sprintf("profiles %d entries of another trace, want %d of the caller's", len(got.Trace), n)
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"DurMicros", got.DurMicros, want.DurMicros},
		{"AICoreW", got.AICoreW, want.AICoreW},
		{"SoCW", got.SoCW, want.SoCW},
		{"TempC", got.TempC, want.TempC},
	} {
		if (c.got == nil) != (c.want == nil) || len(c.got) != len(c.want) {
			return fmt.Sprintf("%s: got %d values (nil %v), want %d (nil %v)", c.name, len(c.got), c.got == nil, len(c.want), c.want == nil)
		}
		for i := range c.want {
			if !sameBits(c.got[i], c.want[i]) {
				return fmt.Sprintf("entry %d (%s): %s %v, want %v", i, want.Trace[i].Key(), c.name, c.got[i], c.want[i])
			}
		}
	}
	if (got.Ratios == nil) != (want.Ratios == nil) || len(got.Ratios) != len(want.Ratios) {
		return fmt.Sprintf("Ratios: got %d (nil %v), want %d (nil %v)", len(got.Ratios), got.Ratios == nil, len(want.Ratios), want.Ratios == nil)
	}
	for i := range want.Ratios {
		if !sameRatios(got.Ratios[i], want.Ratios[i]) {
			return fmt.Sprintf("entry %d (%s): Ratios %v, want %v", i, want.Trace[i].Key(), got.Ratios[i], want.Ratios[i])
		}
	}
	return ""
}

// TestRunPowerMatchesReferenceBitIdentical chains 30 warm-up calls per
// registry workload and frequency through the production RunPower and
// the reference, each with its own profiler (same seed) and thermal
// state, and requires every profile field and the final die
// temperature to agree bit for bit. Noisy and noiseless profilers both
// run: the noisy one also proves the sensor draws stay in order.
func TestRunPowerMatchesReferenceBitIdentical(t *testing.T) {
	calls := 30
	if testing.Short() {
		calls = 3
	}
	chip := npu.Default()
	g := powersim.Default(chip)
	profilers := []struct {
		name string
		mk   func() *Profiler
	}{
		{"noisy", func() *Profiler { return New(chip, 200) }},
		{"noiseless", func() *Profiler { return NewNoiseless(chip) }},
	}
	for _, name := range workload.Names() {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []float64{1000, 1400, 1800} {
			for _, pp := range profilers {
				label := fmt.Sprintf("%s/%g/%s", name, f, pp.name)
				compareRunPower(t, label, m.Trace, f, pp.mk(), pp.mk(), g, calls)
			}
		}
	}
}

// TestRunPowerReferenceOtherChip profiles on a chip that is not the
// ground's: the durations and ratios are the profiler chip's, while
// the uncore bandwidth term must stay the ground chip's time.
func TestRunPowerReferenceOtherChip(t *testing.T) {
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	ground := powersim.Default(npu.Default())
	other := npu.Default().WithUncoreScale(0.8)
	other.T0 = 0.35
	mk := func() *Profiler { return New(other, 7) }
	compareRunPower(t, "vit/other-chip", m.Trace, 1800, mk(), mk(), ground, 5)
}

// TestRunPowerReferenceTableEdges drives a Profiler's operator table
// past its edges: more distinct operators than it holds (then repeats
// of ones it did and did not keep), twins that differ only in the sign
// of a zero, and a NaN spec — which validates, never matches itself,
// and poisons every later reading, so it comes last.
func TestRunPowerReferenceTableEdges(t *testing.T) {
	m, err := workload.ByName("gpt3")
	if err != nil {
		t.Fatal(err)
	}
	var trace []op.Spec
	for i := 0; i < 2*opTableCap; i++ {
		s := m.Trace[i%len(m.Trace)]
		s.Blocks += i
		trace = append(trace, s)
	}
	trace = append(trace, trace[:2*opTableCap]...)
	plus := op.Spec{
		Name: "Twin", Shape: "z", Class: op.Compute, Scenario: op.PingPongDep,
		Blocks: 4, StoreBytes: 1 << 16, CoreCycles: 9000, CorePipe: op.Vector,
	}
	minus := plus
	minus.LoadBytes, minus.L2Hit = math.Copysign(0, -1), math.Copysign(0, -1)
	trace = append(trace, plus, minus, plus, minus)
	nan := plus
	nan.PrePostTime = math.NaN()
	trace = append(trace, nan, nan)

	g := powersim.Default(npu.Default())
	mk := func() *Profiler { return New(g.Chip, 3) }
	compareRunPower(t, "table-edges", trace, 1400, mk(), mk(), g, 3)
}

func compareRunPower(t *testing.T, label string, trace []op.Spec, f float64, prod, ref *Profiler, g *powersim.Ground, calls int) {
	t.Helper()
	steps := make([]step, calls)
	for i := range steps {
		steps[i] = step{trace: trace, f: f, g: g}
	}
	compareSession(t, label, prod, ref, steps)
}

// step is one call of a profiling session: edit, if set, changes what
// the call sees (a trace entry, a chip or ground field) before a
// RunPower under g, or a timing-only Run when g is nil.
type step struct {
	edit  func()
	trace []op.Spec
	f     float64
	g     *powersim.Ground
}

// compareSession makes the calls of steps in order through the
// production profiler prod and, with refRun and refRunPower, through
// ref (same chip and seed, so the same noise draws), each with a
// thermal state of its own, and requires every profile and the die
// temperature after each call to agree bit for bit.
func compareSession(t *testing.T, label string, prod, ref *Profiler, steps []step) {
	t.Helper()
	s := newSession(prod, ref)
	for call, st := range steps {
		if st.edit != nil {
			st.edit()
		}
		if err := s.call(t, fmt.Sprintf("%s call %d", label, call), st.trace, st.f, st.g); err != nil {
			t.Fatalf("%s call %d: %v", label, call, err)
		}
	}
}

// session pairs a production profiler with its reference twin, each
// with a thermal state of its own.
type session struct {
	prod, ref     *Profiler
	thProd, thRef *thermal.State
}

func newSession(prod, ref *Profiler) *session {
	return &session{prod: prod, ref: ref,
		thProd: thermal.NewState(thermal.Default()), thRef: thermal.NewState(thermal.Default())}
}

// call makes one call — a RunPower under g, or a timing-only Run when
// g is nil — through s.prod and, with refRun or refRunPower, through
// s.ref. It fails t unless both return profiles that agree bit for
// bit, or both fail with the same error, and the die temperatures
// after the call agree bit for bit. It returns the error both gave.
func (s *session) call(t *testing.T, label string, trace []op.Spec, f float64, g *powersim.Ground) error {
	t.Helper()
	var got, want *Profile
	var err, refErr error
	if g == nil {
		got, err = s.prod.Run(trace, f)
		want, refErr = refRun(s.ref, trace, f)
	} else {
		got, err = s.prod.RunPower(trace, f, g, s.thProd)
		want, refErr = refRunPower(s.ref, trace, f, g, s.thRef)
	}
	switch {
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: %v, reference: %v", label, err, refErr)
		}
	default:
		if d := diffProfiles(got, want); d != "" {
			t.Fatalf("%s diverged from the reference: %s", label, d)
		}
	}
	if !sameBits(float64(s.thProd.TempC()), float64(s.thRef.TempC())) {
		t.Fatalf("%s: die at %v °C, reference %v °C", label, s.thProd.TempC(), s.thRef.TempC())
	}
	return err
}

// TestProfilerSessionMatchesReference keeps one Profiler for a whole
// session whose calls change what its operator table was filled from:
// the frequency (1000 → 1800 → 1000 MHz, with timing-only Runs between
// the power runs), the ground (swapped for an uncore-scaled one and
// back), a ground field, the profiler chip's and the ground chip's
// fields, and trace entries, each edited in place between calls, and
// the profiler's chip swapped for an equal copy. Every call must match
// the reference, which works everything out afresh.
func TestProfilerSessionMatchesReference(t *testing.T) {
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	for _, noisy := range []bool{true, false} {
		trace := append([]op.Spec(nil), m.Trace...)
		chip := npu.Default()
		g := powersim.Default(chip)
		scaled := *g
		scaled.Chip = chip.WithUncoreScale(0.8)
		other := npu.Default()
		otherG := powersim.Default(other)
		prod, ref := NewNoiseless(chip), NewNoiseless(chip)
		if noisy {
			prod, ref = New(chip, 11), New(chip, 11)
		}

		var steps []step
		add := func(edit func(), f float64, under *powersim.Ground) {
			steps = append(steps, step{edit: edit, trace: trace, f: f, g: under})
		}
		for _, f := range []float64{1000, 1800, 1000} {
			add(nil, f, g)
			add(nil, f, nil)
			add(nil, f, g)
		}
		add(nil, 1800, &scaled)
		add(nil, 1800, g)
		add(func() { g.GammaCore *= 1.5 }, 1800, g)
		add(func() { g.AlphaScale *= 0.9 }, 1800, g)
		add(func() { chip.T0 = 0.35 }, 1800, g)
		add(func() { chip.BWHBM *= 0.9 }, 1800, nil)
		add(nil, 1800, g)
		add(func() { trace[5].Blocks++ }, 1800, g)
		add(func() { trace[6], trace[400] = trace[400], trace[6] }, 1800, g)
		add(func() { trace[7].L2Hit = 0.5 }, 1800, nil)
		add(nil, 1800, g)
		// A ground on a chip other than the profiler's, whose fields
		// then change under it: only the ground's chip moves the uncore
		// term.
		add(nil, 1800, otherG)
		add(func() { other.BWL2 *= 0.7 }, 1800, otherG)
		add(func() { other.Curve = vf.Ascend() }, 1800, otherG)
		add(nil, 1800, otherG)
		// The profilers move to an equal copy of their chip, and the old
		// one is then edited: new operators must be worked out on the
		// copy, not on the chip the table was filled from.
		twin := new(npu.Chip)
		add(func() { *twin = *chip; prod.Chip, ref.Chip = twin, twin }, 1800, nil)
		add(func() { chip.BWL2 *= 0.7; trace[9].Blocks++ }, 1800, nil)

		compareSession(t, fmt.Sprintf("vit session, noisy %v", noisy), prod, ref, steps)
	}
}

// TestOpTableKeepsOperators checks what the table keeps: one entry
// per distinct operator, kept across calls at the same frequency,
// chip and ground, and none for a spec with a NaN however often it
// recurs, so an operator first seen after 2 × opTableCap calls of NaN
// specs still takes an entry and is found by later calls. The profiles
// themselves are held to the reference.
func TestOpTableKeepsOperators(t *testing.T) {
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[op.Spec]bool{}
	for _, s := range m.Trace {
		distinct[s] = true
	}
	chip := npu.Default()
	g := powersim.Default(chip)
	p := New(chip, 5)
	th := thermal.NewState(thermal.Default())
	for call := 0; call < 2; call++ {
		if _, err := p.RunPower(m.Trace, 1800, g, th); err != nil {
			t.Fatal(err)
		}
		if n := len(p.ops.ops); n != len(distinct) {
			t.Fatalf("call %d: table holds %d operators, want the trace's %d distinct", call, n, len(distinct))
		}
	}
	for k, e := range p.ops.ops {
		if !e.hasTerms {
			t.Fatalf("entry %d (%s) has no power terms after a power run", k, e.spec.Key())
		}
	}

	plus := op.Spec{
		Name: "Kept", Shape: "z", Class: op.Compute, Scenario: op.PingPongDep,
		Blocks: 4, StoreBytes: 1 << 16, CoreCycles: 9000, CorePipe: op.Vector,
	}
	nan := plus
	nan.Name, nan.PrePostTime = "NaN", math.NaN()
	late := plus
	late.Name = "Late"
	withNaN := []op.Spec{plus, nan, nan}
	withLate := []op.Spec{plus, nan, late}
	var steps []step
	for i := 0; i <= 2*opTableCap; i++ {
		steps = append(steps, step{trace: withNaN, f: 1400})
	}
	// The last call is a power run, which records where each entry was
	// found; its NaN poisons the die, so nothing comes after it.
	steps = append(steps, step{trace: withLate, f: 1400}, step{trace: withLate, f: 1400, g: g})
	p = New(chip, 6)
	compareSession(t, "NaN specs", p, New(chip, 6), steps)
	if n := len(p.ops.ops); n != 2 {
		t.Fatalf("table holds %d operators after the NaN calls, want 2 (Kept, Late)", n)
	}
	if at := p.ops.at; at[0] != 0 || at[1] != -1 || at[2] != 1 {
		t.Fatalf("last call's places %v, want [0 -1 1]", at)
	}
}

// TestProfilersShareInputsConcurrently runs one Profiler per goroutine
// over one shared chip, ground and trace, as a server's jobs do, and
// requires each goroutine's warm-up to match the same calls made
// alone: a Profiler's table is its own, and filling it must only read
// what it shares. Run it under -race.
func TestProfilersShareInputsConcurrently(t *testing.T) {
	m, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	chip := npu.Default()
	g := powersim.Default(chip)
	const workers, calls = 4, 3
	warm := func(seed int64) ([]*Profile, error) {
		p := New(chip, seed)
		th := thermal.NewState(thermal.Default())
		var out []*Profile
		for call := 0; call < calls; call++ {
			f := []float64{1000, 1800}[call%2]
			prof, err := p.RunPower(m.Trace, f, g, th)
			if err != nil {
				return nil, err
			}
			out = append(out, prof)
		}
		return out, nil
	}
	got := make([][]*Profile, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = warm(int64(w))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		want, err := warm(int64(w))
		if errs[w] != nil || err != nil {
			t.Fatalf("worker %d: %v (alone: %v)", w, errs[w], err)
		}
		for call := range want {
			if d := diffProfiles(got[w][call], want[call]); d != "" {
				t.Fatalf("worker %d call %d differs from the same call made alone: %s", w, call, d)
			}
		}
	}
}

// TestTableSeesEveryField requires the table's reset check to tell
// apart two chips, and two grounds, that differ in one field alone:
// every field in turn, a float by nothing but the sign of a zero. A
// field added to either type is covered without touching this test.
func TestTableSeesEveryField(t *testing.T) {
	checkFields(t, npu.Default(), func(a, b reflect.Value) bool {
		return sameChip(a.Interface().(*npu.Chip), b.Interface().(*npu.Chip))
	})
	checkFields(t, powersim.Default(npu.Default()), func(a, b reflect.Value) bool {
		return sameGround(a.Interface().(*powersim.Ground), b.Interface().(*powersim.Ground))
	})
}

func checkFields(t *testing.T, v any, same func(a, b reflect.Value) bool) {
	t.Helper()
	typ := reflect.TypeOf(v).Elem()
	for i := 0; i < typ.NumField(); i++ {
		a, b := reflect.New(typ), reflect.New(typ)
		a.Elem().Set(reflect.ValueOf(v).Elem())
		b.Elem().Set(reflect.ValueOf(v).Elem())
		if !same(a, b) {
			t.Fatalf("%v: two copies are not the same", typ)
		}
		fa, fb := a.Elem().Field(i), b.Elem().Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			fa.SetFloat(0)
			fb.SetFloat(math.Copysign(0, -1))
		case reflect.Int:
			fb.SetInt(fa.Int() + 1)
		case reflect.String:
			fb.SetString(fa.String() + "'")
		case reflect.Pointer:
			fb.Set(reflect.New(fa.Type().Elem()))
		default:
			t.Fatalf("%v.%s: no edit for kind %v", typ, typ.Field(i).Name, fa.Kind())
		}
		if same(a, b) {
			t.Errorf("%v.%s: copies that differ in it count as the same", typ, typ.Field(i).Name)
		}
	}
}

// TestGroundTermsMatchReferenceBitIdentical compares the one-pass power
// terms — through Terms and through the AICorePower / UncorePower /
// SoCPower / AICoreIdle wrappers — with the reference on an idle chip
// and every entry class, at every grid frequency, three temperature
// rises and the stock and a downclocked uncore (set up the way the
// executor's scaled view is).
func TestGroundTermsMatchReferenceBitIdentical(t *testing.T) {
	vit, err := workload.ByName("vit")
	if err != nil {
		t.Fatal(err)
	}
	specs := []*op.Spec{
		nil,
		{Name: "aicpu", Class: op.AICPU, FixedTime: 30},
		{Name: "allreduce", Class: op.Communication, FixedTime: 150},
		{Name: "idle", Class: op.Idle, FixedTime: 40},
	}
	seen := map[string]bool{}
	for i := range vit.Trace {
		if s := &vit.Trace[i]; s.Class == op.Compute && !seen[s.Key()] {
			seen[s.Key()] = true
			specs = append(specs, s)
		}
	}
	for _, chip := range []*npu.Chip{npu.Default(), npu.Default().WithUncoreScale(0.8)} {
		g := powersim.Default(chip)
		scale := chip.UncoreScale
		for _, f := range units.Floats(chip.Curve.Grid()) {
			for _, s := range specs {
				terms := g.Terms(s, f)
				for _, dt := range []float64{0, 12.5, 30} {
					label := fmt.Sprintf("scale %g, %g MHz, ΔT %g, spec %v", scale, f, dt, s)
					core, soc := terms.Power(dt)
					checks := []struct {
						what      string
						got, want float64
					}{
						{"Terms.Power core", core, refAICorePower(g, s, f, dt)},
						{"Terms.Power soc", soc, refSoCPower(g, s, f, dt)},
						{"AICorePower", g.AICorePower(s, f, dt), refAICorePower(g, s, f, dt)},
						{"UncorePower", g.UncorePower(s, f, dt), refUncorePower(g, s, f, dt)},
						{"SoCPower", g.SoCPower(s, f, dt), refSoCPower(g, s, f, dt)},
						{"AICoreIdle", g.AICoreIdle(f, dt), refAICoreIdle(g, f, dt)},
					}
					for _, c := range checks {
						if !sameBits(c.got, c.want) {
							t.Fatalf("%s: %s = %v, reference %v", label, c.what, c.got, c.want)
						}
					}
				}
				if s != nil {
					if got, want := g.Alpha(s, f), refAlpha(g, s, f); !sameBits(got, want) {
						t.Fatalf("scale %g, %g MHz, %s: Alpha = %v, reference %v", scale, f, s.Key(), got, want)
					}
					if got, want := g.Activity(s), refActivity(g, s); !sameBits(got, want) {
						t.Fatalf("%s: Activity = %v, reference %v", s.Key(), got, want)
					}
					tm, ratios := g.Chip.TimeRatios(s, f)
					if !sameBits(tm, refTime(g.Chip, s, f)) || !sameRatios(ratios, refRatios(g.Chip, s, f)) {
						t.Fatalf("%s at %g MHz: TimeRatios = (%v, %v), reference (%v, %v)",
							s.Key(), f, tm, ratios, refTime(g.Chip, s, f), refRatios(g.Chip, s, f))
					}
				}
			}
		}
	}
}
