package npu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"npudvfs/internal/op"
)

func testSpec(scenario op.Scenario) *op.Spec {
	return &op.Spec{
		Name:       "T",
		Class:      op.Compute,
		Scenario:   scenario,
		Blocks:     6,
		LoadBytes:  2 << 20,
		StoreBytes: 1 << 20,
		CoreCycles: 40000,
		CorePipe:   op.Vector,
		L2Hit:      0.5,
	}
}

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default().Validate() = %v", err)
	}
}

func TestValidateRejectsBadChips(t *testing.T) {
	mutations := []func(*Chip){
		func(c *Chip) { c.Cores = 0 },
		func(c *Chip) { c.CLoad = 0 },
		func(c *Chip) { c.CStore = -1 },
		func(c *Chip) { c.BWL2 = 0 },
		func(c *Chip) { c.BWHBM = -5 },
		func(c *Chip) { c.T0 = -0.1 },
		func(c *Chip) { c.Curve = nil },
	}
	for i, mut := range mutations {
		c := Default()
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate() = nil, want error", i)
		}
	}
}

// Throughput must rise linearly with f until the uncore bandwidth
// saturates, then stay flat (Fig. 3(a), Eq. 1).
func TestThroughputSaturates(t *testing.T) {
	c := Default()
	const l2Hit = 0.0 // pure HBM: saturation below fmin
	fs := c.SaturationMHz(c.CLoad, l2Hit)
	if fs >= 1000 {
		t.Fatalf("test premise: HBM saturation %g MHz should be below 1000", fs)
	}
	for _, f := range c.Curve.Grid() {
		tp := c.Throughput(c.CLoad, l2Hit, float64(f))
		if tp != c.BWUncore(l2Hit) {
			t.Errorf("Throughput(%g MHz) = %g, want saturated %g", f, tp, c.BWUncore(l2Hit))
		}
	}
	// Pure L2: saturation above fmax, so throughput scales with f.
	fsL2 := c.SaturationMHz(c.CLoad, 1.0)
	if fsL2 <= 1800 {
		t.Fatalf("test premise: L2 saturation %g MHz should be above 1800", fsL2)
	}
	tp1000 := c.Throughput(c.CLoad, 1.0, 1000)
	tp1800 := c.Throughput(c.CLoad, 1.0, 1800)
	if math.Abs(tp1800/tp1000-1.8) > 1e-9 {
		t.Errorf("unsaturated throughput not linear in f: %g/%g", tp1800, tp1000)
	}
}

func TestSaturationMatchesThroughputBreak(t *testing.T) {
	c := Default()
	fs := c.SaturationMHz(c.CLoad, 0.5)
	below := c.Throughput(c.CLoad, 0.5, fs*0.99)
	above := c.Throughput(c.CLoad, 0.5, fs*1.01)
	bw := c.BWUncore(0.5)
	if below >= bw {
		t.Errorf("below f_s throughput %g should be < BW %g", below, bw)
	}
	if above != bw {
		t.Errorf("above f_s throughput %g should equal BW %g", above, bw)
	}
}

// Transfer cycles (Eq. 4) are constant below f_s (apart from the T0*f
// term) and grow linearly with slope M/BW above it (Fig. 3(b)).
func TestTransferCyclesShape(t *testing.T) {
	c := Default()
	c.T0 = 0 // isolate the max() term
	s := testSpec(op.PingPongFreeIndep)
	s.L2Hit = 0.5
	fs := c.SaturationMHz(c.CLoad, s.L2Hit)
	if fs < 1100 || fs > 1700 {
		t.Fatalf("test premise: f_s = %g MHz should fall inside the grid", fs)
	}
	lo1, lo2 := c.LdCycles(s, 1000), c.LdCycles(s, fs-1)
	if math.Abs(lo1-lo2) > 1e-6 {
		t.Errorf("cycles below f_s not constant: %g vs %g", lo1, lo2)
	}
	hi1, hi2 := c.LdCycles(s, fs+50), c.LdCycles(s, fs+100)
	wantSlope := s.LoadBytes / c.BWUncore(s.L2Hit)
	gotSlope := (hi2 - hi1) / 50
	if math.Abs(gotSlope-wantSlope)/wantSlope > 1e-9 {
		t.Errorf("cycle slope above f_s = %g, want %g", gotSlope, wantSlope)
	}
}

func TestZeroVolumeTransfersCostNothing(t *testing.T) {
	c := Default()
	s := testSpec(op.PingPongIndep)
	s.LoadBytes = 0
	if got := c.LdCycles(s, 1500); got != 0 {
		t.Errorf("LdCycles with zero volume = %g, want 0", got)
	}
}

// The four scenario formulas must order sensibly: full overlap
// (PingPongIndep) <= partial overlap (PingPongDep) <= no overlap with
// parallel Ld/St (PingPongFreeIndep handles mid intervals with max) and
// all <= fully serial (PingPongFreeDep).
func TestScenarioOrdering(t *testing.T) {
	c := Default()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := testSpec(op.PingPongFreeIndep)
		s.Blocks = 1 + rng.Intn(16)
		s.LoadBytes = float64(1+rng.Intn(1<<22)) + 1
		s.StoreBytes = float64(1 + rng.Intn(1<<22))
		s.CoreCycles = float64(1 + rng.Intn(200000))
		s.L2Hit = rng.Float64()
		f := 1000 + rng.Float64()*800
		cyc := func(sc op.Scenario) float64 {
			s2 := *s
			s2.Scenario = sc
			return c.Cycles(&s2, f)
		}
		ppIndep := cyc(op.PingPongIndep)
		ppDep := cyc(op.PingPongDep)
		serialIndep := cyc(op.PingPongFreeIndep)
		serialDep := cyc(op.PingPongFreeDep)
		const eps = 1e-9
		if ppIndep > ppDep+eps {
			t.Fatalf("trial %d: PingPongIndep %g > PingPongDep %g", trial, ppIndep, ppDep)
		}
		if ppDep > serialDep+eps {
			t.Fatalf("trial %d: PingPongDep %g > PingPongFreeDep %g", trial, ppDep, serialDep)
		}
		if serialIndep > serialDep+eps {
			t.Fatalf("trial %d: PingPongFreeIndep %g > PingPongFreeDep %g", trial, serialIndep, serialDep)
		}
		if ppIndep > serialIndep+eps {
			t.Fatalf("trial %d: PingPongIndep %g > PingPongFreeIndep %g", trial, ppIndep, serialIndep)
		}
	}
}

// Sect. 4.2.5: in every scenario the cycle count is a convex function
// of frequency with non-decreasing slope. We verify discrete convexity
// (second differences >= 0) and monotonicity on a fine frequency grid.
func TestCyclesConvexIncreasing(t *testing.T) {
	c := Default()
	rng := rand.New(rand.NewSource(11))
	scenarios := []op.Scenario{
		op.PingPongFreeIndep, op.PingPongFreeDep, op.PingPongIndep, op.PingPongDep,
	}
	for trial := 0; trial < 100; trial++ {
		for _, sc := range scenarios {
			s := testSpec(sc)
			s.Blocks = 1 + rng.Intn(12)
			s.LoadBytes = float64(rng.Intn(1 << 22))
			s.StoreBytes = float64(rng.Intn(1 << 22))
			s.CoreCycles = float64(1 + rng.Intn(100000))
			s.L2Hit = rng.Float64()
			const step = 5.0
			var prev, prevDelta float64
			for i, f := 0, 1000.0; f <= 1800; i, f = i+1, f+step {
				cyc := c.Cycles(s, f)
				if i > 0 {
					delta := cyc - prev
					if delta < -1e-6 {
						t.Fatalf("%v trial %d: cycles decreased at %g MHz (%g)", sc, trial, f, delta)
					}
					if i > 1 && delta < prevDelta-1e-6 {
						t.Fatalf("%v trial %d: slope decreased at %g MHz (%g < %g)",
							sc, trial, f, delta, prevDelta)
					}
					prevDelta = delta
				}
				prev = cyc
			}
		}
	}
}

// Time(f) need not be monotone, but for a purely compute-bound
// operator it must scale as 1/f exactly.
func TestComputeBoundTimeScalesInverse(t *testing.T) {
	c := Default()
	s := testSpec(op.PingPongIndep)
	s.LoadBytes, s.StoreBytes = 0, 0
	s.PrePostTime = 0
	t1 := c.Time(s, 1000)
	t18 := c.Time(s, 1800)
	if math.Abs(t1/t18-1.8) > 1e-9 {
		t.Errorf("compute-bound time ratio = %g, want 1.8", t1/t18)
	}
}

func TestNonComputeTimeIgnoresFrequency(t *testing.T) {
	c := Default()
	s := &op.Spec{Name: "AllReduce", Class: op.Communication, FixedTime: 321}
	if c.Time(s, 1000) != 321 || c.Time(s, 1800) != 321 {
		t.Error("non-compute op duration must not depend on frequency")
	}
	if r := c.Ratios(s, 1500); r != ([op.NumPipes]float64{}) {
		t.Errorf("non-compute ratios = %v, want all zero", r)
	}
}

func TestCyclesPanicsOnNonCompute(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cycles on non-compute spec did not panic")
		}
	}()
	c := Default()
	c.Cycles(&op.Spec{Name: "x", Class: op.Idle, FixedTime: 1}, 1500)
}

// Ratios are in [0, 1], and per-pipeline busy time never exceeds the
// wall duration of the operator.
func TestQuickRatiosBounded(t *testing.T) {
	c := Default()
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	prop := func(blocks uint8, load, store uint32, coreCycles uint32, l2 float64, fsel uint8) bool {
		s := testSpec(op.Scenario(fsel % 4))
		s.Blocks = 1 + int(blocks%16)
		s.LoadBytes = float64(load % (1 << 23))
		s.StoreBytes = float64(store % (1 << 23))
		s.CoreCycles = float64(1 + coreCycles%300000)
		s.L2Hit = math.Abs(l2) - math.Floor(math.Abs(l2)) // into [0,1)
		f := float64(c.Curve.Grid()[int(fsel)%9])
		ratios := c.Ratios(s, f)
		for _, r := range ratios {
			if r < 0 || r > 1+1e-9 || math.IsNaN(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// The core-pipe ratio of a compute-dominated op approaches 1, and the
// MTE2 ratio of a load-dominated op approaches 1.
func TestRatiosIdentifyBottleneck(t *testing.T) {
	c := Default()
	comp := testSpec(op.PingPongIndep)
	comp.LoadBytes, comp.StoreBytes = 1024, 1024
	comp.CoreCycles = 1e6
	comp.Blocks = 16
	r := c.Ratios(comp, 1500)
	if r[op.Vector] < 0.9 {
		t.Errorf("compute-dominated op: vector ratio = %g, want > 0.9", r[op.Vector])
	}
	mem := testSpec(op.PingPongIndep)
	mem.LoadBytes = 8 << 20
	mem.StoreBytes = 1024
	mem.CoreCycles = 100
	mem.Blocks = 16
	mem.L2Hit = 0
	r = c.Ratios(mem, 1500)
	if r[op.MTE2] < 0.9 {
		t.Errorf("load-dominated op: mte2 ratio = %g, want > 0.9", r[op.MTE2])
	}
	if r[op.Vector] > 0.1 {
		t.Errorf("load-dominated op: vector ratio = %g, want < 0.1", r[op.Vector])
	}
}

func TestGBs(t *testing.T) {
	if GBs(1.2) != 1200 {
		t.Errorf("GBs(1.2) = %g bytes/µs, want 1200", GBs(1.2))
	}
}

func TestWithUncoreScale(t *testing.T) {
	c := Default()
	slow := c.WithUncoreScale(0.8)
	if slow.BWL2 != 0.8*c.BWL2 || slow.BWHBM != 0.8*c.BWHBM {
		t.Fatalf("bandwidths not scaled: %g %g", slow.BWL2, slow.BWHBM)
	}
	// The original is untouched.
	if c.BWL2 != Default().BWL2 || c.UncoreScale != 0 {
		t.Error("WithUncoreScale mutated the receiver")
	}
	// The copy records its scale, and scales compose.
	if slow.UncoreScale != 0.8 {
		t.Errorf("recorded scale = %g, want 0.8", slow.UncoreScale)
	}
	if half := slow.WithUncoreScale(0.5); half.UncoreScale != 0.4 || half.BWHBM != 0.5*slow.BWHBM {
		t.Errorf("composed scale = %g (BWHBM %g), want 0.4", half.UncoreScale, half.BWHBM)
	}
	// A memory-bound op slows down; a compute-bound op does not.
	mem := testSpec(op.PingPongIndep)
	mem.LoadBytes, mem.StoreBytes, mem.CoreCycles = 8<<20, 8<<20, 100
	mem.L2Hit = 0
	if slow.Time(mem, 1500) <= c.Time(mem, 1500) {
		t.Error("memory-bound op should slow down on a downclocked uncore")
	}
	comp := testSpec(op.PingPongIndep)
	comp.LoadBytes, comp.StoreBytes = 512, 512
	comp.CoreCycles = 1e6
	rel := math.Abs(slow.Time(comp, 1500)/c.Time(comp, 1500) - 1)
	if rel > 0.01 {
		t.Errorf("compute-bound op changed by %.3f on uncore downclock", rel)
	}
}
