// Package vf models the voltage-frequency relationship of an AI
// accelerator's core domain under DVFS control.
//
// The reference curve reproduces Fig. 9 of the paper: the Ascend NPU
// supports core frequencies from 1000 MHz to 1800 MHz in 100 MHz
// increments; below a knee frequency (1300 MHz) the firmware holds the
// voltage constant, and above the knee the voltage rises linearly with
// frequency. The same positive correlation is observed on NVIDIA GPUs.
//
// Every frequency the pipeline measures at comes from Curve.Plan: the
// window edges the power and performance models are fitted from, the
// mid run, the interior validation points, the equilibrium runs of the
// offline calibration and the GA prior's LFC frequency. Each is placed
// relative to the grid (edges, fractions of the span, interior), so the
// same rules give the paper's frequencies on Ascend and a chip's own
// points on any other V-F table.
//
// Quantities carry the defined types of internal/units (units.MHz,
// units.Volt). This package is the one place frequency constants are
// allowed to appear as bare literals — everything else must derive its
// operating points from a Curve (enforced by dvfslint's unitcheck
// rule).
package vf

import (
	"fmt"
	"math"
	"sort"

	"npudvfs/internal/units"
)

// Curve describes a firmware voltage-frequency table: a frequency grid
// with automatic voltage adaptation. The zero value is not usable; build
// one with New or use Ascend for the paper's reference platform.
type Curve struct {
	minMHz  units.MHz
	maxMHz  units.MHz
	stepMHz units.MHz
	kneeMHz units.MHz  // below this the voltage is flat
	vFlat   units.Volt // volts at and below the knee
	vMax    units.Volt // volts at maxMHz
}

// New builds a voltage-frequency curve. The curve holds vFlat below
// kneeMHz and rises linearly from vFlat at kneeMHz to vMax at maxMHz.
// The range must be a whole number of steps, at least two, so that both
// edges are grid points and the grid has an interior to validate at.
func New(minMHz, maxMHz, stepMHz, kneeMHz units.MHz, vFlat, vMax units.Volt) (*Curve, error) {
	steps := float64((maxMHz - minMHz) / stepMHz)
	switch {
	case minMHz <= 0 || maxMHz <= minMHz:
		return nil, fmt.Errorf("vf: invalid frequency range [%g, %g] MHz", minMHz, maxMHz)
	case stepMHz <= 0:
		return nil, fmt.Errorf("vf: invalid step %g MHz", stepMHz)
	case steps < 2 || math.Abs(steps-math.Round(steps)) > 1e-9:
		return nil, fmt.Errorf("vf: range [%g, %g] MHz is not a whole number (>= 2) of %g MHz steps", minMHz, maxMHz, stepMHz)
	case kneeMHz < minMHz || kneeMHz > maxMHz:
		return nil, fmt.Errorf("vf: knee %g MHz outside range [%g, %g]", kneeMHz, minMHz, maxMHz)
	case vFlat <= 0 || vMax < vFlat:
		return nil, fmt.Errorf("vf: invalid voltages flat=%g max=%g", vFlat, vMax)
	}
	return &Curve{
		minMHz:  minMHz,
		maxMHz:  maxMHz,
		stepMHz: stepMHz,
		kneeMHz: kneeMHz,
		vFlat:   vFlat,
		vMax:    vMax,
	}, nil
}

// Ascend returns the reference curve used throughout the paper's
// experiments: 1000-1800 MHz in 100 MHz steps, voltage flat at 0.75 V up
// to 1300 MHz, rising linearly to 0.83 V at 1800 MHz (the shape of
// Fig. 9).
func Ascend() *Curve {
	c, err := New(1000, 1800, 100, 1300, 0.75, 0.83)
	if err != nil {
		panic("vf: reference curve construction failed: " + err.Error())
	}
	return c
}

// Min returns the lowest supported frequency.
func (c *Curve) Min() units.MHz { return c.minMHz }

// Max returns the highest supported frequency.
func (c *Curve) Max() units.MHz { return c.maxMHz }

// Step returns the grid step.
func (c *Curve) Step() units.MHz { return c.stepMHz }

// Knee returns the frequency below which voltage is flat.
func (c *Curve) Knee() units.MHz { return c.kneeMHz }

// Grid returns the supported frequency points, ascending.
func (c *Curve) Grid() []units.MHz {
	n := int(math.Round(float64((c.maxMHz-c.minMHz)/c.stepMHz))) + 1
	grid := make([]units.MHz, 0, n)
	for i := 0; i < n; i++ {
		grid = append(grid, c.minMHz+units.MHz(i)*c.stepMHz)
	}
	return grid
}

// Voltage returns the firmware-selected voltage for a core frequency.
// Frequencies outside the supported range are clamped, matching
// firmware behaviour.
func (c *Curve) Voltage(fMHz units.MHz) units.Volt {
	f := c.Clamp(fMHz)
	if f <= c.kneeMHz {
		return c.vFlat
	}
	frac := float64((f - c.kneeMHz) / (c.maxMHz - c.kneeMHz))
	return c.vFlat + units.Volt(frac)*(c.vMax-c.vFlat)
}

// Clamp limits fMHz to the supported range.
func (c *Curve) Clamp(fMHz units.MHz) units.MHz {
	return units.MHz(math.Min(float64(c.maxMHz), math.Max(float64(c.minMHz), float64(fMHz))))
}

// Nearest snaps fMHz to the closest grid point.
func (c *Curve) Nearest(fMHz units.MHz) units.MHz {
	f := c.Clamp(fMHz)
	steps := math.Round(float64((f - c.minMHz) / c.stepMHz))
	return c.minMHz + units.MHz(steps)*c.stepMHz
}

// Contains reports whether fMHz is exactly one of the grid points.
func (c *Curve) Contains(fMHz units.MHz) bool {
	grid := units.Floats(c.Grid())
	i := sort.SearchFloat64s(grid, float64(fMHz))
	//lint:allow floateq exact by contract: grid points are constructed identically by Grid/Nearest and Contains is documented as exact membership
	return i < len(grid) && grid[i] == float64(fMHz)
}

// Point is one (frequency, voltage) operating point.
type Point struct {
	MHz   units.MHz
	Volts units.Volt
}

// Points returns the full operating-point table, ascending by frequency.
// This is the data series behind Fig. 9.
func (c *Curve) Points() []Point {
	grid := c.Grid()
	pts := make([]Point, len(grid))
	for i, f := range grid {
		pts[i] = Point{MHz: f, Volts: c.Voltage(f)}
	}
	return pts
}

// Plan is the measurement plan of a chip: every frequency the modeling
// pipeline profiles, calibrates or validates at, all grid points.
type Plan struct {
	// PowerFit are the window edges: the offline calibration's two
	// idle measurements and the power profiles the online power model
	// is built from (Sect. 7.3).
	PowerFit []units.MHz
	// PerfFit are the points Func. 2's two parameters are solved from
	// exactly (Sect. 4.3): the window edges too.
	PerfFit []units.MHz
	// Mid is the grid point nearest the middle of the window: the
	// timing-only run that supplements the edges, and with them the
	// three-point fit of Func. 1 and Func. 3 (Sect. 7.2).
	Mid units.MHz
	// Eval are the interior grid points predictions are validated at
	// (Table 2, Fig. 15).
	Eval []units.MHz
	// Equilibrium are four points spread over the window, the loads
	// whose equilibrium (P_soc, T) pairs fit k (Fig. 10, Eq. 15).
	Equilibrium []units.MHz
	// PriorLFC is the frequency the GA's prior individual gives LFC
	// stages (Sect. 6.3.1): three quarters of the way up the window.
	PriorLFC units.MHz
}

// Plan derives the measurement plan from the grid. On Ascend it is the
// paper's: fits at 1000 and 1800 MHz, the mid run at 1400, validation
// at 1100-1700, equilibrium runs at 1000, 1300, 1500 and 1800, and the
// prior's LFC stages at 1600.
func (c *Curve) Plan() Plan {
	grid := c.Grid()
	lo, hi := grid[0], grid[len(grid)-1]
	span := hi - lo
	eq := make([]units.MHz, 4)
	for i := range eq {
		eq[i] = c.Nearest(lo + units.MHz(i)*span/3)
	}
	return Plan{
		PowerFit:    []units.MHz{lo, hi},
		PerfFit:     []units.MHz{lo, hi},
		Mid:         c.Nearest(lo + span/2),
		Eval:        grid[1 : len(grid)-1],
		Equilibrium: eq,
		PriorLFC:    c.Nearest(lo + 3*span/4),
	}
}
