package executor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func testExec() *Executor {
	chip := npu.Default()
	return New(chip, powersim.Default(chip))
}

func th() *thermal.State { return thermal.NewState(thermal.Default()) }

// flatTrace builds a trace of identical mid-size compute ops so switch
// timing is easy to reason about.
func flatTrace(n int) []op.Spec {
	reps := workload.RepresentativeOps()
	conv := reps[3] // Conv2D, ~270-480 µs, compute-bound
	trace := make([]op.Spec, n)
	for i := range trace {
		trace[i] = conv
	}
	return trace
}

func TestFixedStrategyMatchesChipTiming(t *testing.T) {
	e := testExec()
	trace := flatTrace(10)
	res, err := e.Run(trace, FixedStrategy(1800), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := range trace {
		want += e.Chip.Time(&trace[i], 1800)
	}
	if math.Abs(res.TimeMicros-want) > 1e-6 {
		t.Errorf("time = %g, want %g", res.TimeMicros, want)
	}
	if res.Switches != 0 {
		t.Errorf("fixed strategy produced %d switches", res.Switches)
	}
	if res.MeanSoCW <= res.MeanCoreW || res.MeanCoreW <= 0 {
		t.Errorf("powers implausible: soc=%g core=%g", res.MeanSoCW, res.MeanCoreW)
	}
}

func TestLowerFrequencyLongerAndCheaper(t *testing.T) {
	e := testExec()
	trace := flatTrace(20)
	hi, err := e.Run(trace, FixedStrategy(1800), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo, err := e.Run(trace, FixedStrategy(1000), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if lo.TimeMicros <= hi.TimeMicros {
		t.Errorf("compute-bound trace should slow at 1000 MHz: %g vs %g", lo.TimeMicros, hi.TimeMicros)
	}
	if lo.MeanCoreW >= hi.MeanCoreW {
		t.Errorf("AICore power should drop at 1000 MHz: %g vs %g", lo.MeanCoreW, hi.MeanCoreW)
	}
}

func TestMidTraceSwitchTakesEffect(t *testing.T) {
	e := testExec()
	trace := flatTrace(20)
	strat := &core.Strategy{
		BaselineMHz: 1800,
		Points: []core.FreqPoint{
			{OpIndex: 0, FreqMHz: 1800},
			{OpIndex: 10, FreqMHz: 1000},
		},
	}
	// Fill in the baseline switch time for op 10.
	start := 0.0
	for i := 0; i < 10; i++ {
		start += e.Chip.Time(&trace[i], 1800)
	}
	strat.Points[1].TimeMicros = units.Micros(start)
	res, err := e.Run(trace, strat, th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 1 {
		t.Fatalf("switches = %d, want 1", res.Switches)
	}
	// Expected duration: 10 ops at 1800 plus 10 at 1000 (latency is
	// anticipated by trigger placement, so the landing is clean).
	want := 0.0
	for i := range trace {
		f := 1800.0
		if i >= 10 {
			f = 1000
		}
		want += e.Chip.Time(&trace[i], f)
	}
	if rel := math.Abs(res.TimeMicros-want) / want; rel > 0.02 {
		t.Errorf("time = %g, want ~%g (rel %g)", res.TimeMicros, want, rel)
	}
	if res.StallMicros > e.Chip.Time(&trace[0], 1800) {
		t.Errorf("stall %g µs unexpectedly large", res.StallMicros)
	}
}

func TestSyncStallsWhenLatencyCannotBeAnticipated(t *testing.T) {
	e := testExec()
	trace := flatTrace(4)
	opDur := e.Chip.Time(&trace[0], 1800)
	strat := &core.Strategy{
		BaselineMHz: 1800,
		Points: []core.FreqPoint{
			{OpIndex: 0, FreqMHz: 1800},
			{OpIndex: 1, TimeMicros: units.Micros(opDur), FreqMHz: 1200},
		},
	}
	// Latency far exceeds one op duration: the trigger can only be op
	// 0, and the target op must stall until the change lands.
	opt := Options{SetFreqLatencyMicros: opDur * 3, Sync: true}
	res, err := e.Run(trace, strat, th(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallMicros < opDur {
		t.Errorf("stall = %g µs, expected at least one op duration (%g)", res.StallMicros, opDur)
	}
	if res.Switches != 1 {
		t.Errorf("switches = %d, want 1", res.Switches)
	}
}

func TestNoSyncLandsLate(t *testing.T) {
	e := testExec()
	trace := flatTrace(6)
	opDur := e.Chip.Time(&trace[0], 1800)
	strat := &core.Strategy{
		BaselineMHz: 1800,
		Points: []core.FreqPoint{
			{OpIndex: 0, FreqMHz: 1800},
			{OpIndex: 1, TimeMicros: units.Micros(opDur), FreqMHz: 1000},
		},
	}
	opt := Options{SetFreqLatencyMicros: 1000, ExtraDelayMicros: opDur * 2, Sync: false}
	res, err := e.Run(trace, strat, th(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallMicros != 0 {
		t.Errorf("no-sync run stalled %g µs", res.StallMicros)
	}
	// The change still lands eventually, mid-trace.
	if res.Switches != 1 {
		t.Errorf("switches = %d, want 1", res.Switches)
	}
	// Duration must sit between all-1800 and the clean-switch ideal,
	// because some post-switch-point ops ran fast at 1800.
	clean := 0.0
	for i := range trace {
		f := 1800.0
		if i >= 1 {
			f = 1000
		}
		clean += e.Chip.Time(&trace[i], f)
	}
	all1800 := float64(len(trace)) * opDur
	if res.TimeMicros >= clean || res.TimeMicros <= all1800 {
		t.Errorf("late landing time %g not in (%g, %g)", res.TimeMicros, all1800, clean)
	}
}

func TestTemperatureRisesAcrossIterations(t *testing.T) {
	e := testExec()
	state := th()
	trace := flatTrace(30)
	first, err := e.Run(trace, FixedStrategy(1800), state, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.Run(trace, FixedStrategy(1800), state, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if float64(state.TempC()) <= first.EndTempC {
		t.Errorf("temperature did not keep rising: %g vs %g", state.TempC(), first.EndTempC)
	}
}

func TestRunStableApproachesEquilibrium(t *testing.T) {
	e := testExec()
	state := th()
	trace := flatTrace(200)
	res, err := e.RunStable(trace, FixedStrategy(1800), state, DefaultOptions(), 5000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(state.Equilibrium(units.Watt(res.MeanSoCW))-state.TempC())) > 1 {
		t.Errorf("not at equilibrium: T=%g, Teq=%g", state.TempC(), state.Equilibrium(units.Watt(res.MeanSoCW)))
	}
}

func TestRunValidation(t *testing.T) {
	e := testExec()
	trace := flatTrace(3)
	if _, err := e.Run(trace, nil, th(), DefaultOptions()); err == nil {
		t.Error("nil strategy: want error")
	}
	if _, err := e.Run(trace, FixedStrategy(1800), nil, DefaultOptions()); err == nil {
		t.Error("nil thermal: want error")
	}
	bad := DefaultOptions()
	bad.SetFreqLatencyMicros = -1
	if _, err := e.Run(trace, FixedStrategy(1800), th(), bad); err == nil {
		t.Error("negative latency: want error")
	}
	broken := &Executor{}
	if _, err := broken.Run(trace, FixedStrategy(1800), th(), DefaultOptions()); err == nil {
		t.Error("incomplete executor: want error")
	}
}

func TestEnergyConsistentWithMeanPower(t *testing.T) {
	e := testExec()
	trace := flatTrace(25)
	res, err := e.Run(trace, FixedStrategy(1500), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantJ := res.MeanSoCW * res.TimeMicros * 1e-6
	if math.Abs(res.EnergySoCJ-wantJ) > 1e-9*wantJ+1e-12 {
		t.Errorf("energy %g J inconsistent with mean power (%g J)", res.EnergySoCJ, wantJ)
	}
}

// Property: any strategy's measured iteration time lies between the
// all-max and all-min fixed runs, and its energy is consistent.
func TestQuickRandomStrategiesBounded(t *testing.T) {
	e := testExec()
	trace := workload.BERT().Trace[:400]
	fast, err := e.Run(trace, FixedStrategy(1800), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.Run(trace, FixedStrategy(1000), th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	grid := e.Chip.Curve.Grid()
	for trial := 0; trial < 25; trial++ {
		strat := &core.Strategy{BaselineMHz: 1800}
		prev := units.MHz(-1)
		for op := 0; op < len(trace); op += 1 + rng.Intn(60) {
			f := grid[rng.Intn(len(grid))]
			if f == prev {
				continue
			}
			start := 0.0
			for i := 0; i < op; i++ {
				start += e.Chip.Time(&trace[i], 1800)
			}
			strat.Points = append(strat.Points, core.FreqPoint{OpIndex: op, TimeMicros: units.Micros(start), FreqMHz: f})
			prev = f
		}
		if len(strat.Points) == 0 {
			strat.Points = append(strat.Points, core.FreqPoint{OpIndex: 0, FreqMHz: 1800})
		}
		res, err := e.Run(trace, strat, th(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeMicros < fast.TimeMicros-1e-6 || res.TimeMicros > slow.TimeMicros+res.StallMicros+1e-6 {
			t.Fatalf("trial %d: time %.1f outside [%.1f, %.1f+stall]",
				trial, res.TimeMicros, fast.TimeMicros, slow.TimeMicros)
		}
		wantJ := res.MeanSoCW * res.TimeMicros * 1e-6
		if math.Abs(res.EnergySoCJ-wantJ) > 1e-6*wantJ {
			t.Fatalf("trial %d: energy inconsistent", trial)
		}
		if res.MeanCoreW <= 0 || res.MeanSoCW <= res.MeanCoreW {
			t.Fatalf("trial %d: implausible powers", trial)
		}
	}
}

// A whole chip whose uncore runs at 0.8x — the Sect. 8.2 what-if's
// path: npu.Chip.WithUncoreScale, under a ground on that chip — must
// slow memory-heavy traces and reduce SoC power relative to the same
// core frequency at stock uncore.
func TestUncoreScaledStrategy(t *testing.T) {
	e := testExec()
	chip := e.Chip.WithUncoreScale(0.8)
	ground := *e.Ground
	ground.Chip = chip
	scaled := New(chip, &ground)
	m := workload.MicroOp(workload.TanhOp(), 60) // memory-bound
	strat := FixedStrategy(1800)
	rs, err := e.Run(m.Trace, strat, th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := scaled.Run(m.Trace, strat, th(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rc.TimeMicros <= rs.TimeMicros {
		t.Errorf("memory-bound trace should slow with 0.8x uncore: %.1f vs %.1f",
			rc.TimeMicros, rs.TimeMicros)
	}
	if rc.MeanSoCW >= rs.MeanSoCW {
		t.Errorf("scaled uncore should draw less SoC power: %.2f vs %.2f",
			rc.MeanSoCW, rs.MeanSoCW)
	}
}

func TestRunRejectsMalformedPoints(t *testing.T) {
	e := testExec()
	trace := flatTrace(5)
	cases := []struct {
		name   string
		points []core.FreqPoint
	}{
		{"out-of-range", []core.FreqPoint{{OpIndex: 0, FreqMHz: 1800}, {OpIndex: 5, FreqMHz: 1000}}},
		{"negative", []core.FreqPoint{{OpIndex: -1, FreqMHz: 1800}}},
		{"duplicate", []core.FreqPoint{{OpIndex: 2, FreqMHz: 1800}, {OpIndex: 2, FreqMHz: 1000}}},
		{"unsorted", []core.FreqPoint{{OpIndex: 3, FreqMHz: 1800}, {OpIndex: 1, FreqMHz: 1000}}},
	}
	for _, tc := range cases {
		strat := &core.Strategy{BaselineMHz: 1800, Points: tc.points}
		if _, err := e.Run(trace, strat, th(), DefaultOptions()); err == nil {
			t.Errorf("%s points: want error, got nil", tc.name)
		}
	}
}

// A shared Executor must tolerate concurrent Run calls from many
// goroutines (run under -race). Every goroutine also checks its
// results against a serial golden run.
func TestConcurrentRunSharedExecutor(t *testing.T) {
	e := testExec()
	trace := flatTrace(30)
	grid := e.Chip.Curve.Grid()
	strategies := make([]*core.Strategy, 16)
	for k := range strategies {
		rng := rand.New(rand.NewSource(int64(40 + k)))
		strat := &core.Strategy{BaselineMHz: 1800}
		for opIdx := 0; opIdx < len(trace); opIdx += 1 + rng.Intn(6) {
			strat.Points = append(strat.Points, core.FreqPoint{OpIndex: opIdx, FreqMHz: grid[rng.Intn(len(grid))]})
		}
		strategies[k] = strat
	}
	golden := make([]*Result, len(strategies))
	for k, strat := range strategies {
		res, err := e.Run(trace, strat, th(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		golden[k] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, strat := range strategies {
				res, err := e.Run(trace, strat, th(), DefaultOptions())
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(res.EnergySoCJ-golden[k].EnergySoCJ) > 1e-12 ||
					math.Abs(res.TimeMicros-golden[k].TimeMicros) > 1e-9 {
					errs <- fmt.Errorf("strategy %d: concurrent result diverged from serial", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// exactAllocs returns the total heap allocations of k warm calls of f.
// testing.AllocsPerRun(n, f) with n > 1 reports the mean truncated to
// an integer, so an allocation made on fewer than every call (an
// amortized append growing its backing array) reads as zero there;
// summing k single-call counts misses none.
func exactAllocs(k int, f func()) float64 {
	var total float64
	for i := 0; i < k; i++ {
		total += testing.AllocsPerRun(1, f)
	}
	return total
}

// TestRunAllocsIndependentOfTraceSize is the zero-allocation contract
// of the cursor walk (DESIGN.md §10): Run allocates its switch plan,
// timeline, Result and jitter source once per call, and walk nothing
// per operator or per switch, so a 10-op, 2-point strategy and a
// 3,000-op, 600-point one allocate the same.
func TestRunAllocsIndependentOfTraceSize(t *testing.T) {
	e := testExec()
	opt := DefaultOptions()
	opt.DelayJitterMicros = 300
	opt.JitterSeed = 7
	grid := e.Chip.Curve.Grid()

	small := &core.Strategy{BaselineMHz: 1800, Points: []core.FreqPoint{
		{OpIndex: 0, FreqMHz: 1800},
		{OpIndex: 5, FreqMHz: 1000},
	}}
	large := &core.Strategy{BaselineMHz: 1800}
	for i := 0; i < 600; i++ {
		large.Points = append(large.Points, core.FreqPoint{OpIndex: 5 * i, FreqMHz: grid[i%len(grid)]})
	}

	count := func(trace []op.Spec, strat *core.Strategy) float64 {
		state := th()
		var err error
		n := exactAllocs(3, func() { _, err = e.Run(trace, strat, state, opt) })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	smallN := count(flatTrace(10), small)
	largeN := count(flatTrace(3000), large)
	t.Logf("Run allocations over 3 calls: %v at 10 ops / 2 points, %v at 3000 ops / 600 points", smallN, largeN)
	if smallN != largeN {
		t.Fatalf("Run allocations grow with the trace: %v over 3 calls at 10 ops / 2 points, %v at 3000 ops / 600 points", smallN, largeN)
	}
}
