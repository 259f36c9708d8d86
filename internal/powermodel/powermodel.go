// Package powermodel implements the paper's temperature-aware power
// model (Sect. 5):
//
//	P = α·f·V² + β·f·V² + γ·ΔT·V + θ·V            (Eq. 11)
//
// Construction follows Fig. 11. The offline phase characterizes the
// chip once: idle power at two frequencies determines the
// load-independent terms β and θ (Eq. 12); the power/temperature decay
// after a test load determines the leakage temperature coefficient γ
// (dP/dT = γV, Sect. 5.4.2); and equilibrium temperatures across loads
// determine k in T = T0 + k·P_soc (Eq. 15). The online phase extracts
// one activity coefficient α per operator from power telemetry
// collected while the target workload runs at the build frequencies
// (Eq. 14). Because P_soc and ΔT depend on each other, predictions use
// the paper's iterative scheme, which converges in a handful of
// rounds.
//
// Both an AICore model and a SoC model are built; the SoC model mirrors
// the AICore formulation (Eq. 16).
//
// Physical quantities cross this package's API as units types
// (units.MHz, units.Volt, units.Watt, units.Celsius); the fitted
// coefficients (α, β, γ, θ) stay raw float64 — they carry composite
// dimensions no single unit type captures.
package powermodel

import (
	"fmt"
	"math"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/profiler"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
)

// Domain holds the fitted load-independent and leakage parameters for
// one power domain (AICore or SoC).
type Domain struct {
	// Beta and Theta define idle power: P_idle = Beta·f·V² + Theta·V.
	Beta, Theta float64
	// Gamma is the leakage temperature coefficient: P_ΔT = Gamma·ΔT·V.
	Gamma float64
}

// Idle returns the domain's load-independent power at frequency f with
// voltage v, excluding the temperature term.
func (d Domain) Idle(f units.MHz, v units.Volt) units.Watt {
	x, w := float64(f), float64(v)
	return units.Watt(d.Beta*x*w*w + d.Theta*w)
}

// Offline holds all hardware-level parameters extracted by the
// offline phase of Fig. 11.
type Offline struct {
	Chip *npu.Chip
	// AICore and SoC are the two modeled power domains.
	AICore, SoC Domain
	// K is k of Eq. 15: equilibrium temperature rise per SoC watt.
	K units.CelsiusPerWatt
	// AmbientC is the zero-power die temperature used to convert
	// temperature readings into ΔT.
	AmbientC units.Celsius
}

// Rig bundles the live system the calibration procedures measure:
// the simulated chip with its ground-truth power and a telemetry
// sensor. On real hardware this is the NPU plus lpmi_tool.
type Rig struct {
	Chip    *npu.Chip
	Ground  *powersim.Ground
	Sensor  *powersim.Sensor
	Thermal thermal.Params
}

// sampleIdle reads n noisy power/temperature samples of the idle chip
// at frequency f with the given ΔT and returns mean AICore and SoC
// power. The raw float64 returns feed straight into the 2x2 solve.
func (r *Rig) sampleIdle(f units.MHz, deltaT units.Celsius, n int) (core, soc float64) {
	x, dt := float64(f), float64(deltaT)
	for i := 0; i < n; i++ {
		core += r.Sensor.Power(r.Ground.AICorePower(nil, x, dt))
		soc += r.Sensor.Power(r.Ground.SoCPower(nil, x, dt))
	}
	return core / float64(n), soc / float64(n)
}

// CalibrateOptions tunes the offline phase. The frequencies it
// measures at come from the chip's vf.Plan: idle power at the window
// edges (PowerFit), the cooldown from the upper edge, and the
// equilibrium runs at Equilibrium.
type CalibrateOptions struct {
	// IdleSamples is the number of sensor readings averaged per idle
	// measurement.
	IdleSamples int
	// CooldownSamples and CooldownStepMicros define the
	// power/temperature decay capture after the test load.
	CooldownSamples    int
	CooldownStepMicros units.Micros
}

// DefaultCalibrateOptions returns the values used by the paper
// reproduction: 64 idle samples per measurement and a 40-point
// cooldown capture.
func DefaultCalibrateOptions() CalibrateOptions {
	return CalibrateOptions{
		IdleSamples:        64,
		CooldownSamples:    40,
		CooldownStepMicros: 2e5,
	}
}

// Calibrate runs the offline phase of Fig. 11 against the rig using
// testLoad as the warm-up workload.
func Calibrate(rig *Rig, testLoad []op.Spec, opt CalibrateOptions) (*Offline, error) {
	if rig == nil || rig.Chip == nil || rig.Ground == nil || rig.Sensor == nil {
		return nil, fmt.Errorf("powermodel: incomplete rig")
	}
	if len(testLoad) == 0 {
		return nil, fmt.Errorf("powermodel: empty test load")
	}
	curve := rig.Chip.Curve
	plan := curve.Plan()
	lo, hi := plan.PowerFit[0], plan.PowerFit[1]
	off := &Offline{Chip: rig.Chip, AmbientC: rig.Thermal.AmbientC}

	// Step 1 - idle power at two frequencies, cold chip (ΔT = 0):
	// solve Beta/Theta for each domain from the 2x2 system
	//   P(f) = Beta·f·V² + Theta·V.
	f1, f2 := float64(lo), float64(hi)
	v1, v2 := float64(curve.Voltage(lo)), float64(curve.Voltage(hi))
	c1, s1 := rig.sampleIdle(lo, 0, opt.IdleSamples)
	c2, s2 := rig.sampleIdle(hi, 0, opt.IdleSamples)
	solve := func(p1, p2 float64) (Domain, error) {
		a := [][]float64{{f1 * v1 * v1, v1}, {f2 * v2 * v2, v2}}
		x, err := stats.SolveLinear(a, []float64{p1, p2})
		if err != nil {
			return Domain{}, err
		}
		return Domain{Beta: x[0], Theta: x[1]}, nil
	}
	var err error
	if off.AICore, err = solve(c1, c2); err != nil {
		return nil, fmt.Errorf("powermodel: AICore idle fit: %w", err)
	}
	if off.SoC, err = solve(s1, s2); err != nil {
		return nil, fmt.Errorf("powermodel: SoC idle fit: %w", err)
	}

	// Step 2 - gamma from the cooldown after a test load: warm the
	// chip, remove the load, and regress idle power readings against
	// temperature readings as the die cools (dP/dT = γV).
	prof := profiler.Profiler{Chip: rig.Chip, Sensor: rig.Sensor, TimeNoiseFrac: 0.01}
	th := thermal.NewState(rig.Thermal)
	coolF := hi
	if _, err := prof.WarmupIterations(testLoad, float64(coolF), rig.Ground, th, 4000, 0.5); err != nil {
		return nil, fmt.Errorf("powermodel: warm-up: %w", err)
	}
	vCool := float64(curve.Voltage(coolF))
	var temps, cores, socs []float64
	for i := 0; i < opt.CooldownSamples; i++ {
		deltaT := float64(th.DeltaT())
		pc := rig.Ground.AICorePower(nil, float64(coolF), deltaT)
		ps := rig.Ground.SoCPower(nil, float64(coolF), deltaT)
		temps = append(temps, rig.Sensor.Temp(float64(th.TempC())))
		cores = append(cores, rig.Sensor.Power(pc))
		socs = append(socs, rig.Sensor.Power(ps))
		th.Step(opt.CooldownStepMicros, units.Watt(ps))
	}
	_, slopeCore, err := stats.LinFit(temps, cores)
	if err != nil {
		return nil, fmt.Errorf("powermodel: AICore cooldown fit: %w", err)
	}
	_, slopeSoC, err := stats.LinFit(temps, socs)
	if err != nil {
		return nil, fmt.Errorf("powermodel: SoC cooldown fit: %w", err)
	}
	off.AICore.Gamma = slopeCore / vCool
	off.SoC.Gamma = slopeSoC / vCool

	// Step 3 - k from equilibrium (P_soc, T) pairs across loads at
	// different frequencies (Fig. 10 / Eq. 15).
	var eqP, eqT []float64
	for _, f := range plan.Equilibrium {
		thEq := thermal.NewState(rig.Thermal)
		p, err := prof.WarmupIterations(testLoad, float64(f), rig.Ground, thEq, 4000, 0.5)
		if err != nil {
			return nil, fmt.Errorf("powermodel: equilibrium run at %g MHz: %w", float64(f), err)
		}
		eqP = append(eqP, p.MeanSoCW())
		eqT = append(eqT, rig.Sensor.Temp(float64(thEq.TempC())))
	}
	_, k, err := stats.LinFit(eqP, eqT)
	if err != nil {
		return nil, fmt.Errorf("powermodel: equilibrium fit: %w", err)
	}
	off.K = units.CelsiusPerWatt(k)
	return off, nil
}

// OpPower holds the fitted load-dependent coefficients of one
// operator.
type OpPower struct {
	// AlphaCore and AlphaSoC are the activity coefficients of Eq. 13
	// for compute operators (W per MHz·V²).
	AlphaCore, AlphaSoC float64
	// ExtraSoC is the constant uncore power above idle drawn by
	// non-compute entries (AICPU, communication), whose consumption
	// does not follow the α·f·V² form.
	ExtraSoC float64
	// Compute records which representation applies.
	Compute bool
}

// Model is the complete power model: offline hardware parameters plus
// per-operator online coefficients.
type Model struct {
	*Offline
	// Ops maps operator key to fitted coefficients.
	Ops map[string]OpPower
	// TemperatureAware controls whether the γΔT·V term is used; the
	// ablation of Sect. 7.3 sets it false (γ effectively zero).
	TemperatureAware bool
}

// Build runs the online phase: it extracts per-operator α values from
// power-collecting profiles (one per build frequency, typically the
// window edges), subtracting idle and temperature terms per Eq. 14.
// With temperatureAware false, the temperature term is not subtracted,
// so its energy is absorbed into α — the paper's γ=0 ablation.
func Build(off *Offline, profiles []*profiler.Profile, temperatureAware bool) (*Model, error) {
	if off == nil {
		return nil, fmt.Errorf("powermodel: nil offline calibration")
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("powermodel: no build profiles")
	}
	type acc struct {
		core, soc, extra float64
		n                int
		compute          bool
	}
	sums := make(map[string]*acc)
	curve := off.Chip.Curve
	for pi, prof := range profiles {
		if len(prof.SoCW) != prof.Len() {
			return nil, fmt.Errorf("powermodel: build profile %d carries no power readings; want a power run", pi)
		}
		f := prof.FreqMHz
		for i := range prof.Trace {
			spec := &prof.Trace[i]
			if spec.Class == op.Idle {
				continue
			}
			v := float64(curve.Voltage(units.MHz(f)))
			deltaT := prof.TempC[i] - float64(off.AmbientC)
			tempCore, tempSoC := 0.0, 0.0
			if temperatureAware {
				tempCore = off.AICore.Gamma * deltaT * v
				tempSoC = off.SoC.Gamma * deltaT * v
			}
			key := spec.Key()
			a, ok := sums[key]
			if !ok {
				a = &acc{compute: spec.Class == op.Compute}
				sums[key] = a
			}
			idleCore := float64(off.AICore.Idle(units.MHz(f), units.Volt(v)))
			idleSoC := float64(off.SoC.Idle(units.MHz(f), units.Volt(v)))
			if a.compute {
				a.core += (prof.AICoreW[i] - idleCore - tempCore) / (f * v * v)
				a.soc += (prof.SoCW[i] - idleSoC - tempSoC) / (f * v * v)
			} else {
				a.extra += prof.SoCW[i] - idleSoC - tempSoC
			}
			a.n++
		}
	}
	m := &Model{Offline: off, Ops: make(map[string]OpPower, len(sums)), TemperatureAware: temperatureAware}
	for key, a := range sums {
		n := float64(a.n)
		m.Ops[key] = OpPower{
			AlphaCore: a.core / n,
			AlphaSoC:  a.soc / n,
			ExtraSoC:  a.extra / n,
			Compute:   a.compute,
		}
	}
	return m, nil
}

// gamma returns the effective temperature coefficients honoring the
// ablation switch.
func (m *Model) gamma() (core, soc float64) {
	if !m.TemperatureAware {
		return 0, 0
	}
	return m.AICore.Gamma, m.SoC.Gamma
}

// OpPowerAt predicts the instantaneous AICore and SoC power of an
// operator at frequency f with temperature rise deltaT. Unknown keys
// predict idle power.
func (m *Model) OpPowerAt(key string, f units.MHz, deltaT units.Celsius) (core, soc units.Watt) {
	p, ok := m.Ops[key]
	return m.At(f, deltaT).OpPower(p, ok)
}

// Point is the operator-independent part of a power prediction: the
// voltage and the idle-plus-temperature power of both domains at one
// (frequency, ΔT). Table builders that predict every operator at the
// same few points take each Point once and each operator's Ops entry
// once, instead of paying both per (operator, point) through
// OpPowerAt; the arithmetic and its order are OpPowerAt's, so the
// results are the same bits.
type Point struct {
	f, v              float64
	coreIdle, socIdle float64
}

// At evaluates the operator-independent terms at frequency f with
// temperature rise deltaT.
func (m *Model) At(f units.MHz, deltaT units.Celsius) Point {
	dt := float64(deltaT)
	v := float64(m.Chip.Curve.Voltage(f))
	gc, gs := m.gamma()
	return Point{
		f:        float64(f),
		v:        v,
		coreIdle: float64(m.AICore.Idle(f, units.Volt(v))) + gc*dt*v,
		socIdle:  float64(m.SoC.Idle(f, units.Volt(v))) + gs*dt*v,
	}
}

// OpPower adds one operator's load-dependent power to the point's idle
// power. known is the ok of the Ops lookup; an unknown operator
// predicts idle power.
func (pt Point) OpPower(p OpPower, known bool) (core, soc units.Watt) {
	pc, ps := pt.coreIdle, pt.socIdle
	if !known {
		return units.Watt(pc), units.Watt(ps)
	}
	if p.Compute {
		pc += p.AlphaCore * pt.f * pt.v * pt.v
		ps += p.AlphaSoC * pt.f * pt.v * pt.v
	} else {
		ps += p.ExtraSoC
	}
	return units.Watt(pc), units.Watt(ps)
}

// SolveDeltaTLinear solves the Sect. 5.4 fixed point in closed form
// for the affine case ΔT = k·(P0 + slope·ΔT), where P0 is the power at
// ΔT = 0 and slope (W/°C) is dP_soc/dΔT — for the stage-table
// evaluator, γ_soc times the time-weighted mean voltage. The iterative
// scheme from ΔT = 0 is the geometric series k·P0·Σ(k·slope)^m, so the
// closed form k·P0/(1-k·slope) is its exact limit; the two agree to
// better than 1e-9 (proved in tests), but the closed form costs one
// divide instead of a handful of callback rounds and allocates
// nothing. When the loop gain k·slope reaches 1 the fixed point is
// non-physical (thermal runaway) and the iterative solver's divergent
// behaviour is preserved by falling back to it. Genuinely nonlinear
// P_soc(ΔT) callers must keep using SolveDeltaT.
func SolveDeltaTLinear(k units.CelsiusPerWatt, p0 units.Watt, slopeWPerC float64) units.Celsius {
	gain := float64(k) * slopeWPerC
	if gain >= 1 {
		// Inline the SolveDeltaT rounds for the affine P_soc instead of
		// passing a closure: this branch is reachable from the scoring
		// hot path, and the closure capture was its only allocation.
		// Same maxIters/tol and the same float op order, so the
		// divergent-case behaviour is bit-identical.
		const (
			maxIters = 16
			tol      = 1e-6
		)
		var deltaT units.Celsius
		for i := 0; i < maxIters; i++ {
			next := k.Times(units.Watt(float64(p0) + slopeWPerC*float64(deltaT)))
			if math.Abs(float64(next-deltaT)) < tol {
				return next
			}
			deltaT = next
		}
		return deltaT
	}
	return units.Celsius(float64(k) * float64(p0) / (1 - gain))
}

// SolveDeltaT solves the self-consistent temperature rise of Sect. 5.4:
// ΔT = k·P_soc(ΔT). It iterates from ΔT = 0 as in the paper, which
// converges within a few rounds; iters reports how many were used.
func SolveDeltaT(k units.CelsiusPerWatt, psoc func(deltaT units.Celsius) units.Watt) (deltaT units.Celsius, iters int) {
	const (
		maxIters = 16
		tol      = 1e-6
	)
	for iters = 0; iters < maxIters; iters++ {
		next := k.Times(psoc(deltaT))
		if math.Abs(float64(next-deltaT)) < tol {
			return next, iters + 1
		}
		deltaT = next
	}
	return deltaT, maxIters
}
