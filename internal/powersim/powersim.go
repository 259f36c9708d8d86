// Package powersim generates the ground-truth power consumption of the
// simulated NPU and the lpmi-like sensor used to observe it.
//
// The ground truth has the same physical composition as Eq. 11 of the
// paper — dynamic load-dependent power αfV², load-independent dynamic
// power βfV², temperature-dependent static power γΔT·V and constant
// static power θV — but is deliberately richer than the model under
// test: per-operator activity factors drift slightly with frequency
// (real switching activity is not perfectly frequency-invariant), the
// uncore power follows achieved memory bandwidth rather than the αfV²
// form the SoC model assumes, and the sensor adds measurement noise.
// That richness is what gives the fitted models of internal/powermodel
// realistic single-digit-percent errors rather than a trivial exact
// recovery of simulator parameters.
package powersim

import (
	"math"
	"math/rand"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/units"
)

// Ground computes the true (noise-free) power of the chip.
type Ground struct {
	Chip *npu.Chip

	// AICore idle components of Eq. 12: P_idle = BetaCore*f*V² + ThetaCore*V.
	BetaCore  float64 // W per (MHz·V²)
	ThetaCore float64 // W per V

	// GammaCore is γ of Eq. 10 for the AICore: W per (°C·V) of
	// subthreshold-leakage growth.
	GammaCore float64

	// AlphaScale converts switching activity to watts per (MHz·V²).
	AlphaScale float64
	// DriftFrac is the maximum fractional drift of an operator's
	// activity factor across the frequency range; each operator gets
	// a deterministic drift in [-DriftFrac, +DriftFrac].
	DriftFrac float64

	// Uncore components (HBM, L2, bus, AICPU): not frequency-tunable
	// on this platform (Sect. 8.2), so they depend on achieved
	// bandwidth, not on the core frequency directly.
	UncoreIdle   float64 // W
	UncoreBWCoef float64 // W per (byte/µs) of achieved uncore traffic
	// UncoreIdleDyn is the clock-proportional share of UncoreIdle: the
	// part that would shrink if the uncore domain were downclocked.
	// Used by the Sect. 8.2 what-if study, on a Chip made by
	// npu.Chip.WithUncoreScale; at nominal uncore clock it is simply
	// included in UncoreIdle.
	UncoreIdleDyn float64
	// UncoreCoupling scales uncore (bus, L2 interface) switching with
	// the AICore's active power: the uncore serves requests at the
	// rate the core issues them, so part of its dynamic power follows
	// core activity even though its rail is not frequency-tunable.
	// This is what makes measured SoC savings exceed the AICore's own
	// absolute saving, as in the paper's Table 3.
	UncoreCoupling float64
	UncoreGamma    float64 // W per °C of ΔT (uncore leakage)
	AICPUPower     float64 // extra W while an AICPU operator runs
	CommPower      float64 // extra W while a communication operator runs

	// RefMHz is the frequency at which activity factors are defined;
	// drift is proportional to (f-RefMHz)/(max-min).
	RefMHz float64
}

// Default returns the ground-truth parameters calibrated so that a
// GPT-3-like training workload draws roughly the paper's power levels:
// ~250 W SoC with ~46 W on the AICore at 1800 MHz, with the
// temperature-dependent AICore term contributing 3-8 W (10-20% of
// AICore power, Sect. 7.3) and the uncore averaging ~80% of SoC power
// (Sect. 8.2).
func Default(chip *npu.Chip) *Ground {
	return &Ground{
		Chip:           chip,
		BetaCore:       0.004,
		ThetaCore:      5,
		GammaCore:      0.2,
		AlphaScale:     0.027,
		DriftFrac:      0.04,
		UncoreIdle:     150,
		UncoreIdleDyn:  60,
		UncoreBWCoef:   3e-5,
		UncoreCoupling: 0.8,
		UncoreGamma:    0.1,
		AICPUPower:     15,
		CommPower:      25,
		RefMHz:         1400,
	}
}

// FNV-1a, inlined so the ground-truth model stays allocation-free on
// the executor's hot path: hash/fnv costs a []byte conversion and a
// hash.Hash64 box per call. fnvString folds s into h byte-for-byte
// exactly as hash/fnv's sum64a does, so the values are unchanged.
const fnvOffset64 = 14695981039346656037

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hash01 maps an FNV state deterministically to [0, 1).
func hash01(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// specHash folds the operator's model identity — the same Name["/"
// Shape] string Spec.Key returns — without building it: FNV is
// byte-sequential, so folding the parts equals hashing the
// concatenation.
func specHash(s *op.Spec) uint64 {
	h := fnvString(fnvOffset64, s.Name)
	if s.Shape != "" {
		h = fnvString(h, "/")
		h = fnvString(h, s.Shape)
	}
	return h
}

// kindFactor gives each operator type/shape a stable activity
// multiplier in [0.7, 1.3], from its specHash h.
func kindFactor(h uint64) float64 { return 0.7 + 0.6*hash01(h) }

// driftCoef gives each operator a stable frequency drift in [-1, 1]
// (scaled by DriftFrac when applied), from its specHash h.
func driftCoef(h uint64) float64 {
	return 2*hash01(fnvString(h, "/drift")) - 1
}

// Activity returns the operator's switching-activity level: how much
// of the chip toggles per cycle while it runs. Compute pipelines
// toggle the most; memory-transfer pipelines contribute less. The
// level is defined at RefMHz so it is a per-operator constant.
func (g *Ground) Activity(s *op.Spec) float64 {
	if s.Class != op.Compute {
		return 0
	}
	return g.activity(s, specHash(s))
}

// activity is Activity for a Compute spec whose specHash is h.
func (g *Ground) activity(s *op.Spec, h uint64) float64 {
	r := g.Chip.Ratios(s, g.RefMHz)
	core := r[op.Cube] + r[op.Vector] + r[op.Scalar] + r[op.MTE1]
	mem := r[op.MTE2] + r[op.MTE3]
	act := core + 0.35*mem
	return act * kindFactor(h)
}

// Alpha returns the operator's true activity coefficient α (Eq. 13) at
// a given frequency, in W per (MHz·V²), including the frequency drift
// that the analytic model cannot see.
func (g *Ground) Alpha(s *op.Spec, fMHz float64) float64 {
	h := specHash(s)
	var act float64
	if s.Class == op.Compute {
		act = g.activity(s, h)
	}
	base := g.AlphaScale * act
	span := float64(g.Chip.Curve.Max() - g.Chip.Curve.Min())
	drift := g.DriftFrac * driftCoef(h) * (fMHz - g.RefMHz) / span
	return base * (1 + drift)
}

// achievedBW returns the operator's realized uncore traffic in
// bytes/µs at fMHz.
func (g *Ground) achievedBW(s *op.Spec, fMHz float64) float64 {
	if s == nil || s.Class != op.Compute {
		return 0
	}
	bytes := float64(s.Blocks) * (s.LoadBytes + s.StoreBytes)
	t := g.Chip.Time(s, fMHz)
	if t <= 0 {
		return 0
	}
	return bytes / t
}

// Terms are one trace entry's temperature-independent power terms at
// one core frequency: everything AICorePower, UncorePower and SoCPower
// compute that does not depend on ΔT. Evaluating them costs the
// operator's α (Eq. 4 at RefMHz plus an FNV pass over its name) and
// its achieved bandwidth (Eq. 4 at f, on the ground's own chip); the
// ΔT-dependent power then costs a few multiply-adds. A caller that
// needs both domains — SoC power includes AICore power — evaluates the
// terms once instead of once per domain.
type Terms struct {
	g *Ground
	// class selects which load terms apply; a nil spec draws what an
	// Idle entry draws.
	class    op.Class
	v        float64 // V(f)
	coreIdle float64 // β·f·V² + θ·V
	coreDyn  float64 // α·f·V² (Compute)
	uncoreBW float64 // UncoreBWCoef · achieved bytes/µs (Compute)
	coupling float64 // UncoreCoupling · α·f·V² (Compute)
	extra    float64 // AICPUPower or CommPower
}

// Terms evaluates the temperature-independent power terms of the trace
// entry s (nil for an idle chip) at fMHz.
func (g *Ground) Terms(s *op.Spec, fMHz float64) Terms {
	v := float64(g.Chip.Curve.Voltage(units.MHz(fMHz)))
	t := Terms{g: g, class: op.Idle, v: v, coreIdle: g.BetaCore*fMHz*v*v + g.ThetaCore*v}
	if s == nil {
		return t
	}
	t.class = s.Class
	switch s.Class {
	case op.Compute:
		alpha := g.Alpha(s, fMHz)
		t.coreDyn = alpha * fMHz * v * v
		t.uncoreBW = g.UncoreBWCoef * g.achievedBW(s, fMHz)
		t.coupling = g.UncoreCoupling * alpha * fMHz * v * v
	case op.AICPU:
		t.extra = g.AICPUPower
	case op.Communication:
		t.extra = g.CommPower
	}
	return t
}

// aicore returns the AICore power at temperature rise deltaT: Eq. 12
// plus the static leakage term, which persists at idle, plus α·f·V²
// while a Compute operator runs.
func (t *Terms) aicore(deltaT float64) float64 {
	p := t.coreIdle + t.g.GammaCore*deltaT*t.v
	if t.class == op.Compute {
		p += t.coreDyn
	}
	return p
}

// uncore returns the uncore domain's power at temperature rise deltaT.
func (t *Terms) uncore(deltaT float64) float64 {
	g := t.g
	p := g.UncoreIdle + g.UncoreGamma*deltaT
	if scale := g.Chip.UncoreScale; scale > 0 {
		// Downclocking the uncore shrinks its clock-proportional idle
		// power (frequency and, mildly, voltage). A chip never scaled
		// skips this, and a unit scale subtracts an exact zero, so
		// both leave p bit-identical to the nominal uncore's.
		p -= g.UncoreIdleDyn * (1 - scale*scale)
	}
	switch t.class {
	case op.Compute:
		p += t.uncoreBW
		p += t.coupling
	case op.AICPU, op.Communication:
		p += t.extra
	}
	return p
}

// Power returns the true AICore and SoC (AICore plus uncore) power at
// temperature rise deltaT.
func (t *Terms) Power(deltaT float64) (core, soc float64) {
	core = t.aicore(deltaT)
	return core, core + t.uncore(deltaT)
}

// AICoreIdle returns the load-independent AICore power at frequency
// fMHz and temperature rise deltaT.
func (g *Ground) AICoreIdle(fMHz, deltaT float64) float64 {
	return g.AICorePower(nil, fMHz, deltaT)
}

// AICorePower returns the true AICore power while the operator runs at
// fMHz with temperature rise deltaT. A nil spec or a non-Compute spec
// yields idle power.
func (g *Ground) AICorePower(s *op.Spec, fMHz, deltaT float64) float64 {
	t := g.Terms(s, fMHz)
	return t.aicore(deltaT)
}

// UncorePower returns the true power of the uncore domain (HBM, L2,
// bus, AICPU) while the given trace entry runs.
func (g *Ground) UncorePower(s *op.Spec, fMHz, deltaT float64) float64 {
	t := g.Terms(s, fMHz)
	return t.uncore(deltaT)
}

// SoCPower returns the true chip (SoC) power: AICore plus uncore.
func (g *Ground) SoCPower(s *op.Spec, fMHz, deltaT float64) float64 {
	t := g.Terms(s, fMHz)
	_, soc := t.Power(deltaT)
	return soc
}

// Sensor models the lpmi_tool telemetry path: readings of true power
// and temperature with multiplicative power noise and additive
// temperature noise. All randomness is seeded for reproducibility.
type Sensor struct {
	rng *rand.Rand
	// PowerNoiseFrac is the 1-sigma relative error of power readings.
	PowerNoiseFrac float64
	// TempNoiseC is the 1-sigma absolute error of temperature
	// readings in °C.
	TempNoiseC float64
}

// NewSensor returns a sensor with 1% power noise and 0.3 °C
// temperature noise, seeded deterministically.
func NewSensor(seed int64) *Sensor {
	return &Sensor{
		rng:            rand.New(rand.NewSource(seed)),
		PowerNoiseFrac: 0.01,
		TempNoiseC:     0.3,
	}
}

// Power returns a noisy reading of a true power value.
func (s *Sensor) Power(trueWatts float64) float64 {
	return trueWatts * (1 + s.rng.NormFloat64()*s.PowerNoiseFrac)
}

// Temp returns a noisy reading of a true temperature.
func (s *Sensor) Temp(trueC float64) float64 {
	return trueC + s.rng.NormFloat64()*s.TempNoiseC
}

// TimeNoise returns a multiplicative duration-measurement factor
// centred on 1, used by the profiler for execution-time readings.
func (s *Sensor) TimeNoise(sigmaFrac float64) float64 {
	return math.Exp(s.rng.NormFloat64() * sigmaFrac)
}
