// Package thermal models chip temperature under load as a first-order
// (RC) system. The equilibrium behaviour matches Eq. 15 of the paper:
// the AICore temperature under a sustained load is linear in SoC power,
//
//	T_eq = T_ambient + k * P_soc
//
// and the transient approach to equilibrium is exponential with a
// package time constant, which reproduces the gradual power/temperature
// decay after a load completes that Sect. 5.4.2 exploits to measure γ.
package thermal

import (
	"math"

	"npudvfs/internal/units"
)

// Params holds the physical constants of the thermal model.
type Params struct {
	// AmbientC is T_0 of Eq. 15: the die temperature at zero power
	// (tracks the inlet/ambient temperature).
	AmbientC units.Celsius
	// KCPerWatt is k of Eq. 15: equilibrium °C per watt of SoC power.
	KCPerWatt units.CelsiusPerWatt
	// TauMicros is the package thermal time constant.
	TauMicros units.Micros
}

// Default returns the constants used by the reproduction experiments:
// 35 °C ambient, 0.12 °C/W (≈65 °C at a 250 W SoC), 8 s time constant.
func Default() Params {
	return Params{AmbientC: 35, KCPerWatt: 0.12, TauMicros: 8e6}
}

// State is an evolving die temperature. The zero value is invalid;
// create with NewState.
type State struct {
	Params
	tempC units.Celsius
}

// NewState returns a State at thermal equilibrium with zero power.
func NewState(p Params) *State {
	return &State{Params: p, tempC: p.AmbientC}
}

// TempC returns the current die temperature.
func (s *State) TempC() units.Celsius { return s.tempC }

// DeltaT returns the current temperature rise over ambient, the ΔT of
// Eq. 10.
func (s *State) DeltaT() units.Celsius { return s.tempC - s.AmbientC }

// Equilibrium returns the steady-state temperature for a SoC power, per
// Eq. 15.
func (s *State) Equilibrium(psoc units.Watt) units.Celsius {
	return s.AmbientC + s.KCPerWatt.Times(psoc)
}

// Step advances the temperature by dt of operation at the given SoC
// power, relaxing exponentially toward the equilibrium point. A dt
// ≤ 0 leaves it as it is.
func (s *State) Step(dt units.Micros, psoc units.Watt) {
	s.StepDecay(dt, psoc, s.Decay(dt))
}

// Decay returns the share of the distance to equilibrium that dt of
// operation leaves, exp(−dt/τ).
func (p *Params) Decay(dt units.Micros) float64 {
	return math.Exp(-float64(dt) / float64(p.TauMicros))
}

// StepDecay is Step with its decay, Decay(dt), worked out beforehand:
// a caller that knows many steps' durations ahead takes their exps in
// one loop, off the chain of temperatures.
func (s *State) StepDecay(dt units.Micros, psoc units.Watt, decay float64) {
	if dt <= 0 {
		return
	}
	teq := s.Equilibrium(psoc)
	s.tempC = teq + (s.tempC-teq)*units.Celsius(decay)
}

// SetTemp forces the temperature, used to start experiments from a
// warmed-up state.
func (s *State) SetTemp(t units.Celsius) { s.tempC = t }
