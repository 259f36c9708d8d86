package powersim

import (
	"math"
	"testing"

	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/units"
)

func computeSpec() *op.Spec {
	return &op.Spec{
		Name:       "MatMul",
		Shape:      "4096",
		Class:      op.Compute,
		Scenario:   op.PingPongIndep,
		Blocks:     8,
		LoadBytes:  1 << 20,
		StoreBytes: 1 << 19,
		CoreCycles: 80000,
		CorePipe:   op.Cube,
		L2Hit:      0.6,
	}
}

func ground() *Ground { return Default(npu.Default()) }

func TestIdlePowerRisesWithFrequency(t *testing.T) {
	g := ground()
	prev := 0.0
	for _, f := range g.Chip.Curve.Grid() {
		p := g.AICoreIdle(float64(f), 0)
		if p <= prev {
			t.Errorf("idle power not increasing at %g MHz: %g <= %g", f, p, prev)
		}
		prev = p
	}
}

func TestIdlePowerRisesWithTemperature(t *testing.T) {
	g := ground()
	cold := g.AICoreIdle(1500, 0)
	hot := g.AICoreIdle(1500, 30)
	if hot <= cold {
		t.Errorf("leakage must grow with ΔT: %g <= %g", hot, cold)
	}
	// Eq. 10: the growth is linear in ΔT with slope γV.
	v := float64(g.Chip.Curve.Voltage(1500))
	want := g.GammaCore * 30 * v
	if math.Abs((hot-cold)-want) > 1e-9 {
		t.Errorf("temperature term = %g, want %g", hot-cold, want)
	}
}

func TestActivePowerExceedsIdle(t *testing.T) {
	g := ground()
	s := computeSpec()
	for _, f := range units.Floats(g.Chip.Curve.Grid()) {
		idle := g.AICorePower(nil, f, 10)
		active := g.AICorePower(s, f, 10)
		if active <= idle {
			t.Errorf("active power %g <= idle %g at %g MHz", active, idle, f)
		}
	}
}

func TestNonComputeDrawsIdleAICorePower(t *testing.T) {
	g := ground()
	comm := &op.Spec{Name: "AllReduce", Class: op.Communication, FixedTime: 100}
	if got, want := g.AICorePower(comm, 1500, 5), g.AICoreIdle(1500, 5); got != want {
		t.Errorf("communication AICore power = %g, want idle %g", got, want)
	}
}

func TestActivityStableAcrossShapesButNotKinds(t *testing.T) {
	g := ground()
	a := computeSpec()
	b := computeSpec()
	b.Shape = "8192" // different key -> different kind factor
	if g.Activity(a) == g.Activity(b) {
		t.Error("different shapes should get distinct activity factors")
	}
	// Deterministic: same spec, same value.
	if g.Activity(a) != g.Activity(computeSpec()) {
		t.Error("activity factor must be deterministic")
	}
}

func TestAlphaDriftBoundedAndDeterministic(t *testing.T) {
	g := ground()
	s := computeSpec()
	base := g.Alpha(s, g.RefMHz)
	for _, f := range units.Floats(g.Chip.Curve.Grid()) {
		a := g.Alpha(s, f)
		if rel := math.Abs(a-base) / base; rel > g.DriftFrac+1e-12 {
			t.Errorf("drift at %g MHz = %g, exceeds bound %g", f, rel, g.DriftFrac)
		}
	}
	if g.Alpha(s, 1700) != g.Alpha(computeSpec(), 1700) {
		t.Error("alpha must be deterministic per operator")
	}
}

func TestUncoreDominatesSoCPower(t *testing.T) {
	// Sect. 8.2: uncore power averages around 80% of SoC power.
	g := ground()
	s := computeSpec()
	at := 1800.0
	un := g.UncorePower(s, at, 25)
	soc := g.SoCPower(s, at, 25)
	frac := un / soc
	if frac < 0.6 || frac > 0.95 {
		t.Errorf("uncore fraction = %g, want within [0.6, 0.95]", frac)
	}
}

func TestUncorePowerTracksTraffic(t *testing.T) {
	g := ground()
	light := computeSpec()
	light.LoadBytes, light.StoreBytes = 1024, 1024
	heavy := computeSpec()
	heavy.LoadBytes = 8 << 20
	pl := g.UncorePower(light, 1500, 0)
	ph := g.UncorePower(heavy, 1500, 0)
	if ph <= pl {
		t.Errorf("memory-heavy op uncore power %g <= light op %g", ph, pl)
	}
}

func TestUncoreExtrasByClass(t *testing.T) {
	g := ground()
	idle := g.UncorePower(&op.Spec{Name: "i", Class: op.Idle, FixedTime: 1}, 1500, 0)
	aicpu := g.UncorePower(&op.Spec{Name: "a", Class: op.AICPU, FixedTime: 1}, 1500, 0)
	comm := g.UncorePower(&op.Spec{Name: "c", Class: op.Communication, FixedTime: 1}, 1500, 0)
	if aicpu <= idle || comm <= idle {
		t.Errorf("AICPU (%g) and communication (%g) must exceed idle uncore (%g)", aicpu, comm, idle)
	}
	if nilPower := g.UncorePower(nil, 1500, 0); nilPower != idle {
		t.Errorf("nil spec uncore power %g, want idle %g", nilPower, idle)
	}
}

func TestSoCPowerScaleMatchesPaperBallpark(t *testing.T) {
	// The reference calibration should put a busy compute op in the
	// paper's regime: SoC power in the low hundreds of watts with the
	// AICore contributing a 10-25% share.
	g := ground()
	s := computeSpec()
	soc := g.SoCPower(s, 1800, 25)
	core := g.AICorePower(s, 1800, 25)
	if soc < 150 || soc > 400 {
		t.Errorf("SoC power = %g W, want within [150, 400]", soc)
	}
	if share := core / soc; share < 0.08 || share > 0.3 {
		t.Errorf("AICore share = %g, want within [0.08, 0.3]", share)
	}
}

func TestSensorDeterministicPerSeed(t *testing.T) {
	a := NewSensor(42)
	b := NewSensor(42)
	for i := 0; i < 10; i++ {
		if a.Power(100) != b.Power(100) {
			t.Fatal("same-seed sensors diverged")
		}
	}
}

func TestSensorNoiseMagnitude(t *testing.T) {
	s := NewSensor(1)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		r := s.Power(100)
		sum += r
		sumSq += (r - 100) * (r - 100)
	}
	mean := sum / float64(n)
	rms := math.Sqrt(sumSq / float64(n))
	if math.Abs(mean-100) > 0.05 {
		t.Errorf("sensor bias: mean = %g", mean)
	}
	if rms < 0.8 || rms > 1.2 {
		t.Errorf("sensor rms = %g, want ~1 (1%% of 100)", rms)
	}
}

func TestTimeNoiseCentred(t *testing.T) {
	s := NewSensor(7)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.TimeNoise(0.01)
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.005 {
		t.Errorf("time noise mean = %g, want ~1", mean)
	}
}

func TestUncoreScaleReducesUncorePower(t *testing.T) {
	g := ground()
	s := computeSpec()
	stock := g.UncorePower(s, 1500, 10)
	// A unit scale leaves the power bit-identical to a chip never
	// scaled.
	unit := *g
	unit.Chip = g.Chip.WithUncoreScale(1)
	if got := unit.UncorePower(s, 1500, 10); math.Float64bits(got) != math.Float64bits(stock) {
		t.Errorf("unit-scale uncore power %v != stock %v", got, stock)
	}
	g.Chip = g.Chip.WithUncoreScale(0.8)
	slow := g.UncorePower(s, 1500, 10)
	if slow >= stock {
		t.Errorf("downclocked uncore power %g >= stock %g", slow, stock)
	}
	// The reduction must not exceed the dynamic idle share plus the
	// traffic term.
	if stock-slow > g.UncoreIdleDyn+g.UncoreBWCoef*g.Chip.BWUncore(s.L2Hit) {
		t.Errorf("implausible uncore saving %g W", stock-slow)
	}
}
