package vf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"npudvfs/internal/units"
)

func TestAscendGrid(t *testing.T) {
	c := Ascend()
	grid := c.Grid()
	if len(grid) != 9 {
		t.Fatalf("grid length = %d, want 9", len(grid))
	}
	if grid[0] != 1000 || grid[len(grid)-1] != 1800 {
		t.Errorf("grid endpoints = %g, %g; want 1000, 1800", grid[0], grid[len(grid)-1])
	}
	for i := 1; i < len(grid); i++ {
		if grid[i]-grid[i-1] != 100 {
			t.Errorf("grid step at %d = %g, want 100", i, grid[i]-grid[i-1])
		}
	}
}

func TestVoltageFlatBelowKnee(t *testing.T) {
	c := Ascend()
	for _, f := range []units.MHz{1000, 1100, 1200, 1300} {
		if v := c.Voltage(f); v != 0.75 {
			t.Errorf("Voltage(%g) = %g, want 0.75 (flat below knee)", f, v)
		}
	}
}

func TestVoltageLinearAboveKnee(t *testing.T) {
	c := Ascend()
	v13 := c.Voltage(1300)
	v18 := c.Voltage(1800)
	if v18 <= v13 {
		t.Fatalf("voltage must rise above knee: V(1300)=%g, V(1800)=%g", v13, v18)
	}
	// Midpoint of the rising segment must be the midpoint voltage.
	vMid := c.Voltage(1550)
	want := (v13 + v18) / 2
	if math.Abs(float64(vMid-want)) > 1e-12 {
		t.Errorf("Voltage(1550) = %g, want %g (linear above knee)", vMid, want)
	}
}

func TestVoltageMonotone(t *testing.T) {
	c := Ascend()
	prev := units.Volt(0)
	for _, f := range c.Grid() {
		v := c.Voltage(f)
		if v < prev {
			t.Errorf("voltage decreased at %g MHz: %g < %g", f, v, prev)
		}
		prev = v
	}
}

func TestClampAndNearest(t *testing.T) {
	c := Ascend()
	cases := []struct {
		in, clamp, near units.MHz
	}{
		{900, 1000, 1000},
		{1000, 1000, 1000},
		{1049, 1049, 1000},
		{1051, 1051, 1100},
		{1800, 1800, 1800},
		{2500, 1800, 1800},
	}
	for _, tc := range cases {
		if got := c.Clamp(tc.in); got != tc.clamp {
			t.Errorf("Clamp(%g) = %g, want %g", tc.in, got, tc.clamp)
		}
		if got := c.Nearest(tc.in); got != tc.near {
			t.Errorf("Nearest(%g) = %g, want %g", tc.in, got, tc.near)
		}
	}
}

func TestContains(t *testing.T) {
	c := Ascend()
	if !c.Contains(1500) {
		t.Error("Contains(1500) = false, want true")
	}
	if c.Contains(1550) {
		t.Error("Contains(1550) = true, want false")
	}
}

func TestPointsMatchesVoltage(t *testing.T) {
	c := Ascend()
	for _, p := range c.Points() {
		if got := c.Voltage(p.MHz); got != p.Volts {
			t.Errorf("Points() at %g MHz = %g V, Voltage() = %g V", p.MHz, p.Volts, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name                 string
		min, max, step, knee units.MHz
		vFlat, vMax          units.Volt
	}{
		{"reversed range", 1800, 1000, 100, 1300, 0.75, 0.83},
		{"zero step", 1000, 1800, 0, 1300, 0.75, 0.83},
		{"knee below range", 1000, 1800, 100, 900, 0.75, 0.83},
		{"knee above range", 1000, 1800, 100, 1900, 0.75, 0.83},
		{"vmax below vflat", 1000, 1800, 100, 1300, 0.85, 0.75},
		{"nonpositive voltage", 1000, 1800, 100, 1300, 0, 0.83},
		{"partial step", 1000, 1850, 100, 1300, 0.75, 0.83},
		{"no interior point", 1000, 1100, 100, 1000, 0.75, 0.83},
	}
	for _, tc := range cases {
		if _, err := New(tc.min, tc.max, tc.step, tc.knee, tc.vFlat, tc.vMax); err == nil {
			t.Errorf("New(%s): expected error, got nil", tc.name)
		}
	}
}

// Property: Nearest always lands on a grid point, and voltage is always
// within the [vFlat, vMax] envelope, for arbitrary inputs.
func TestQuickNearestOnGrid(t *testing.T) {
	c := Ascend()
	prop := func(f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		n := c.Nearest(units.MHz(f))
		v := c.Voltage(units.MHz(f))
		return c.Contains(n) && v >= 0.75 && v <= 0.83
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestAscendPlan pins the plan on the reference curve to the paper's
// measurement frequencies.
func TestAscendPlan(t *testing.T) {
	got := Ascend().Plan()
	want := Plan{
		PowerFit:    []units.MHz{1000, 1800},
		PerfFit:     []units.MHz{1000, 1800},
		Mid:         1400,
		Eval:        []units.MHz{1100, 1200, 1300, 1400, 1500, 1600, 1700},
		Equilibrium: []units.MHz{1000, 1300, 1500, 1800},
		PriorLFC:    1600,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ascend().Plan() = %+v, want %+v", got, want)
	}
}

// TestCustomChipPlan pins the plan on the 800-2000 MHz table of
// examples/custom-accelerator: every point follows that chip's grid.
func TestCustomChipPlan(t *testing.T) {
	c, err := New(800, 2000, 100, 1400, 0.70, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Plan()
	want := Plan{
		PowerFit:    []units.MHz{800, 2000},
		PerfFit:     []units.MHz{800, 2000},
		Mid:         1400,
		Eval:        []units.MHz{900, 1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900},
		Equilibrium: []units.MHz{800, 1200, 1600, 2000},
		PriorLFC:    1700,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Plan() = %+v, want %+v", got, want)
	}
}

// randomCurve is a valid curve with an integral grid: min, step and the
// number of steps are drawn, and the knee is a random point inside.
type randomCurve struct{ *Curve }

func (randomCurve) Generate(r *rand.Rand, _ int) reflect.Value {
	lo := units.MHz(1 + r.Intn(3000))
	step := units.MHz(1 + r.Intn(200))
	hi := lo + units.MHz(2+r.Intn(40))*step
	knee := lo + units.MHz(r.Float64())*(hi-lo)
	c, err := New(lo, hi, step, knee, 0.7, 0.9)
	if err != nil {
		panic(err)
	}
	return reflect.ValueOf(randomCurve{c})
}

// checkPlan reports the first way c's plan breaks the plan's contract.
func checkPlan(c *Curve) string {
	p := c.Plan()
	grid := c.Grid()
	points := append(append(append(append([]units.MHz{p.Mid, p.PriorLFC}, p.PowerFit...), p.PerfFit...), p.Eval...), p.Equilibrium...)
	for _, f := range points {
		if !c.Contains(f) || f < c.Min() || f > c.Max() {
			return "off-grid or out-of-window point"
		}
	}
	if !slices.Equal(p.Eval, grid[1:len(grid)-1]) {
		return "Eval is not the interior grid"
	}
	if !slices.IsSorted(p.Equilibrium) {
		return "Equilibrium not ascending"
	}
	return ""
}

// Property: on any valid curve the plan lies on the grid inside the
// window, validates at exactly the interior points and runs the
// equilibrium loads in ascending order.
func TestQuickPlanOnGrid(t *testing.T) {
	prop := func(c randomCurve) bool {
		if msg := checkPlan(c.Curve); msg != "" {
			t.Logf("%+v: %s", c.Plan(), msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSmallestGridPlan(t *testing.T) {
	c, err := New(1000, 1200, 100, 1100, 0.75, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkPlan(c); msg != "" {
		t.Errorf("3-point grid: %s: %+v", msg, c.Plan())
	}
	if p := c.Plan(); len(p.Eval) != 1 || p.Eval[0] != 1100 {
		t.Errorf("3-point grid validates at %v, want [1100]", p.Eval)
	}
}
