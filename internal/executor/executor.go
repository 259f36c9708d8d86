// Package executor simulates executing a workload iteration under a
// DVFS strategy with the SetFreq mechanism of Sect. 7.1 (Fig. 14).
//
// SetFreq operators are dispatched on a dedicated stream and take a
// fixed actuation latency (1 ms on the Ascend NPU, ~15 ms on a V100)
// to take effect. To make a frequency change land exactly at its
// intended operator, the executor subtracts the latency from the
// switch time and picks the last operator starting before that point
// as the trigger: the SetFreq is dispatched when the trigger operator
// starts, and Event Record/Wait synchronization optionally guarantees
// the change completes before the target operator begins.
//
// The executor is the "hardware run" of the evaluation: it integrates
// the ground-truth power model and thermal state over the actual
// execution, so measured results can be compared against model
// predictions and against the paper's trends.
package executor

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"npudvfs/internal/core"
	"npudvfs/internal/npu"
	"npudvfs/internal/op"
	"npudvfs/internal/powersim"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
)

// Options controls actuation behaviour.
type Options struct {
	// SetFreqLatencyMicros is the actuation latency of the SetFreq
	// operator (1000 µs on the Ascend platform).
	SetFreqLatencyMicros float64
	// ExtraDelayMicros postpones SetFreq deployment, simulating a
	// slower platform: the Fig. 18 V100 comparison adds 14 ms.
	ExtraDelayMicros float64
	// DelayJitterMicros adds a uniform random extra delay in
	// [0, DelayJitterMicros) per SetFreq, modeling the unstable
	// actuation of platforms without a fast frequency-control path
	// (the Ascend SetFreq has a "stable activation time", Sect. 7.1 —
	// slower platforms do not). Jitter smears switch landings across
	// stage boundaries, eroding the frequency/operator alignment that
	// fine-grained DVFS relies on.
	DelayJitterMicros float64
	// JitterSeed drives the jitter sequence deterministically.
	JitterSeed int64
	// Sync enforces the Event Wait: the operator at a switch point
	// stalls until the frequency change completes. The production
	// configuration uses it; the delayed-deployment comparison does
	// not (the change simply lands late).
	Sync bool
}

// DefaultOptions returns the production Ascend configuration.
func DefaultOptions() Options {
	return Options{SetFreqLatencyMicros: 1000, Sync: true}
}

// Result is the measured outcome of one executed iteration.
type Result struct {
	// TimeMicros is the iteration wall time.
	TimeMicros float64
	// MeanSoCW and MeanCoreW are time-weighted mean powers.
	MeanSoCW, MeanCoreW float64
	// EnergySoCJ and EnergyCoreJ are the integrated energies in
	// joules.
	EnergySoCJ, EnergyCoreJ float64
	// Switches counts frequency changes that took effect.
	Switches int
	// StallMicros is time spent waiting on Event Wait
	// synchronization.
	StallMicros float64
	// EndTempC is the die temperature at iteration end.
	EndTempC float64
}

// pendingSwitch is a scheduled frequency change.
type pendingSwitch struct {
	triggerOp int // dispatch SetFreq while this op runs
	targetOp  int // the op that must see the new frequency
	// offsetMicros is where within the trigger operator the dispatch
	// happens, derived from the baseline timeline: the paper's
	// executor subtracts the SetFreq latency from the switch time, so
	// the dispatch lands latency-early rather than at an operator
	// boundary (Fig. 14).
	offsetMicros float64
	freqMHz      float64
	uncoreScale  float64 // 0 = leave at nominal
	effectTime   float64 // filled at runtime: dispatch + latency
	dispatched   bool
	applied      bool
}

// Executor runs traces under strategies on the simulated chip.
//
// Concurrency contract: one Executor may be shared by any number of
// goroutines calling Run/RunStable/planSwitches concurrently, provided
// Chip and Ground are not reassigned after New and each goroutine
// supplies its own *thermal.State (thermal evolution is per-run
// mutable state). The GA worker pool relies on this: every Score call
// of a hardware-in-the-loop problem drives the same Executor. The only
// internal mutable state is the lazily populated scaled-view cache,
// which is guarded by mu.
type Executor struct {
	Chip   *npu.Chip
	Ground *powersim.Ground

	// mu guards scaled. Chip and Ground are treated as immutable after
	// construction and read without locking.
	mu sync.RWMutex
	// scaled caches per-uncore-scale views of the chip and ground
	// truth for the two-domain extension.
	scaled map[float64]scaledView
}

type scaledView struct {
	chip   *npu.Chip
	ground *powersim.Ground
}

// New returns an executor for the chip with its ground-truth power.
func New(chip *npu.Chip, ground *powersim.Ground) *Executor {
	return &Executor{Chip: chip, Ground: ground}
}

// viewAt returns the chip and ground truth adjusted for an uncore
// scale (cached; scale 1 or 0 is the stock view). Safe for concurrent
// use: the common paths (stock view, cache hit) take only a read lock,
// and on a racing miss both builders compute the same deterministic
// view, so whichever wins the write lock publishes it first.
func (e *Executor) viewAt(scale float64) scaledView {
	//lint:allow floateq exact sentinels: 0 = unset, 1 = stock; the scaled-view cache below is keyed by the exact scale value
	if scale == 0 || scale == 1 {
		return scaledView{chip: e.Chip, ground: e.Ground}
	}
	e.mu.RLock()
	v, ok := e.scaled[scale]
	e.mu.RUnlock()
	if ok {
		return v
	}
	chip := e.Chip.WithUncoreScale(scale)
	g := *e.Ground
	g.Chip = chip
	g.UncoreScale = scale
	v = scaledView{chip: chip, ground: &g}
	e.mu.Lock()
	if cached, ok := e.scaled[scale]; ok {
		v = cached
	} else {
		if e.scaled == nil {
			e.scaled = make(map[float64]scaledView)
		}
		e.scaled[scale] = v
	}
	e.mu.Unlock()
	return v
}

// validateStrategy checks the structural assumptions planSwitches
// depends on: points sorted strictly ascending by OpIndex (sorted and
// unique) and every OpIndex inside the trace. Violations would not
// crash the executor — they would silently misplace switch landings,
// because the trigger search binary-searches the baseline timeline —
// so Run rejects them with a descriptive error instead.
func validateStrategy(trace []op.Spec, strat *core.Strategy) error {
	for i, pt := range strat.Points {
		if pt.OpIndex < 0 || pt.OpIndex >= len(trace) {
			return fmt.Errorf("executor: strategy point %d has OpIndex %d outside trace [0, %d)",
				i, pt.OpIndex, len(trace))
		}
		if i > 0 && pt.OpIndex == strat.Points[i-1].OpIndex {
			return fmt.Errorf("executor: strategy points %d and %d duplicate OpIndex %d",
				i-1, i, pt.OpIndex)
		}
		if i > 0 && pt.OpIndex < strat.Points[i-1].OpIndex {
			return fmt.Errorf("executor: strategy points not sorted by OpIndex (%d at point %d after %d)",
				pt.OpIndex, i, strat.Points[i-1].OpIndex)
		}
	}
	return nil
}

// planSwitches converts strategy points into trigger-anticipated
// pending switches, per Fig. 14: the SetFreq latency is subtracted
// from each frequency adjustment time point on the strategy's own
// expected timeline (operators before a switch run at their assigned
// frequency), so landings stay precise even when early low-frequency
// stages stretch the schedule.
//
// Safe for concurrent calls: it reads only the immutable chip/ground
// views (via the locked cache) and the caller's trace and strategy,
// and requires strat.Points sorted and unique by OpIndex (checked by
// Run via validateStrategy).
func (e *Executor) planSwitches(trace []op.Spec, strat *core.Strategy, opt Options) []pendingSwitch {
	starts := make([]float64, len(trace))
	now := 0.0
	// Walk the sorted points with a cursor instead of calling
	// FreqAt/UncoreScaleAt (each O(points)) per operator, caching the
	// current scaled view — the timeline build is O(ops+points).
	freq := float64(strat.BaselineMHz)
	scale := 1.0
	view := e.viewAt(scale)
	pi := 0
	for i := range trace {
		for pi < len(strat.Points) && strat.Points[pi].OpIndex <= i {
			pt := &strat.Points[pi]
			freq = float64(pt.FreqMHz)
			s := pt.UncoreScale
			//lint:allow floateq exact sentinel: 0 means "uncore scale unset"
			if s == 0 {
				s = 1
			}
			//lint:allow floateq exact scale values key the cached view; a repeated point carries the identical float
			if s != scale {
				scale = s
				view = e.viewAt(scale)
			}
			pi++
		}
		starts[i] = now
		now += view.chip.Time(&trace[i], freq)
	}
	plan := make([]pendingSwitch, 0, len(strat.Points))
	for _, pt := range strat.Points {
		if pt.OpIndex == 0 {
			continue // initial frequency, applied before execution
		}
		anticipated := starts[pt.OpIndex] - opt.SetFreqLatencyMicros
		// The trigger is the last operator starting at or before the
		// anticipated dispatch time.
		trigger := sort.Search(len(starts), func(i int) bool { return starts[i] > anticipated }) - 1
		if trigger < 0 {
			trigger = 0
		}
		if trigger >= pt.OpIndex {
			trigger = pt.OpIndex - 1
		}
		offset := anticipated - starts[trigger]
		if offset < 0 {
			offset = 0
		}
		plan = append(plan, pendingSwitch{
			triggerOp:    trigger,
			targetOp:     pt.OpIndex,
			offsetMicros: offset,
			freqMHz:      float64(pt.FreqMHz),
			uncoreScale:  pt.UncoreScale,
		})
	}
	return plan
}

// Run executes one iteration of the trace under the strategy,
// advancing the thermal state, and returns measured results.
//
// Run is safe for concurrent calls on a shared Executor as long as
// each caller passes its own *thermal.State: all per-run bookkeeping
// (switch plan, current frequency/view, accumulators) is local, and
// the scaled-view cache is internally synchronized. The strategy's
// Points must be sorted strictly ascending by OpIndex; Run returns a
// descriptive error otherwise rather than silently misaligning switch
// landings.
func (e *Executor) Run(trace []op.Spec, strat *core.Strategy, th *thermal.State, opt Options) (*Result, error) {
	if e.Chip == nil || e.Ground == nil {
		return nil, fmt.Errorf("executor: incomplete executor")
	}
	if th == nil {
		return nil, fmt.Errorf("executor: nil thermal state")
	}
	if strat == nil || len(strat.Points) == 0 {
		return nil, fmt.Errorf("executor: nil or empty strategy")
	}
	if err := validateStrategy(trace, strat); err != nil {
		return nil, err
	}
	if opt.SetFreqLatencyMicros < 0 || opt.ExtraDelayMicros < 0 || opt.DelayJitterMicros < 0 {
		return nil, fmt.Errorf("executor: negative latency")
	}
	var jitter *rand.Rand
	if opt.DelayJitterMicros > 0 {
		jitter = rand.New(rand.NewSource(opt.JitterSeed))
	}
	plan := e.planSwitches(trace, strat, opt)
	freq := float64(strat.Points[0].FreqMHz)
	scale := strat.Points[0].UncoreScale
	if strat.Points[0].OpIndex != 0 {
		freq = float64(strat.BaselineMHz)
		scale = 0
	}
	view := e.viewAt(scale)

	res := &Result{}
	c := runCursor{
		e: e, plan: plan, opt: opt, jitter: jitter, th: th, res: res,
		freq: freq, view: view,
	}
	c.walk(trace)
	res.TimeMicros = c.now
	if c.now > 0 {
		res.MeanSoCW = res.EnergySoCJ * 1e6 / c.now
		res.MeanCoreW = res.EnergyCoreJ * 1e6 / c.now
	}
	res.EndTempC = float64(th.TempC())
	return res, nil
}

// runCursor is the per-run mutable state of Run's cursor walk. Keeping
// it on one stack value rather than in closures inside Run keeps the
// GA's hardware-in-the-loop scoring loop closure-free, so walk
// allocates nothing per operator (TestRunAllocsIndependentOfTraceSize
// holds Run's allocation count fixed across trace and plan sizes).
// The cursors applyLo/dispatchHi/syncCur are monotone over the plan,
// which is ordered by targetOp with non-decreasing triggerOp (strategy
// points are strictly ascending and the anticipated dispatch times
// inherit the timeline's order).
// [applyLo, dispatchHi) is the in-flight window — dispatched but not
// yet all applied — and every scan below touches only it, so the walk
// is O(ops+plan) instead of rescanning the whole plan per operator.
// The window stays tiny (switch spacing is the FAI, actuation latency
// ~1 ms), but applied entries need not be contiguous under jitter, so
// applyLo only advances over the applied prefix.
type runCursor struct {
	e      *Executor
	plan   []pendingSwitch
	opt    Options
	jitter *rand.Rand
	th     *thermal.State
	res    *Result

	freq float64
	view scaledView
	now  float64

	applyLo    int
	dispatchHi int
	syncCur    int
}

// applyEffects applies every pending effect up to time t, in plan
// index order (the order the seed implementation applied them).
func (c *runCursor) applyEffects(t float64) {
	for j := c.applyLo; j < c.dispatchHi; j++ {
		p := &c.plan[j]
		if !p.applied && p.effectTime <= t {
			if !stats.Approx(p.freqMHz, c.freq) {
				c.freq = p.freqMHz
				c.res.Switches++
			}
			c.view = c.e.viewAt(p.uncoreScale)
			p.applied = true
		}
	}
	for c.applyLo < c.dispatchHi && c.plan[c.applyLo].applied {
		c.applyLo++
	}
}

// integrate accrues energy and thermal state over dur at the current
// frequency/view (s == nil integrates an idle stall). The view's
// ground evaluates the power terms once for both domains; their
// bandwidth term is its own chip's time at c.freq, whatever share of
// the operator dur covers.
func (c *runCursor) integrate(s *op.Spec, dur float64) {
	if dur <= 0 {
		return
	}
	terms := c.view.ground.Terms(s, c.freq)
	coreP, soc := terms.Power(float64(c.th.DeltaT()))
	c.res.EnergySoCJ += soc * dur * 1e-6
	c.res.EnergyCoreJ += coreP * dur * 1e-6
	c.th.Step(units.Micros(dur), units.Watt(soc))
}

// walk runs the cursor over the trace: dispatch, event-wait stalls,
// effect application and mid-op frequency splitting, exactly in the
// seed implementation's float op order (the reference oracle pins the
// output bit-for-bit).
func (c *runCursor) walk(trace []op.Spec) {
	for i := range trace {
		s := &trace[i]
		// Dispatch SetFreq operators triggered by this op's start
		// (plan entries are ordered by trigger, so the cursor never
		// backtracks).
		for c.dispatchHi < len(c.plan) && c.plan[c.dispatchHi].triggerOp <= i {
			p := &c.plan[c.dispatchHi]
			p.dispatched = true
			p.effectTime = c.now + p.offsetMicros +
				c.opt.SetFreqLatencyMicros + c.opt.ExtraDelayMicros
			if c.jitter != nil {
				p.effectTime += c.jitter.Float64() * c.opt.DelayJitterMicros
			}
			c.dispatchHi++
		}
		// Event Wait: before the target op of a synchronized switch
		// starts, its frequency change must have completed. targetOps
		// are strictly ascending (validated), so a cursor finds the at
		// most one entry targeting this op.
		if c.opt.Sync {
			for c.syncCur < len(c.plan) && c.plan[c.syncCur].targetOp < i {
				c.syncCur++
			}
			if c.syncCur < len(c.plan) {
				p := &c.plan[c.syncCur]
				if p.targetOp == i && p.dispatched && !p.applied && p.effectTime > c.now {
					stall := p.effectTime - c.now
					c.integrate(nil, stall) // idle while stalled
					c.res.StallMicros += stall
					c.now = p.effectTime
				}
			}
		}
		c.applyEffects(c.now)

		// Execute the operator, splitting at any mid-op frequency
		// effect: the remaining work continues at the new frequency.
		remaining := 1.0
		for remaining > 1e-12 {
			dur := c.view.chip.Time(s, c.freq) * remaining
			if dur <= 0 {
				break
			}
			// Find the earliest pending effect inside (now, now+dur);
			// only the in-flight window can hold one.
			cut := c.now + dur
			found := false
			for j := c.applyLo; j < c.dispatchHi; j++ {
				p := &c.plan[j]
				if !p.applied && p.effectTime > c.now && p.effectTime < cut {
					cut = p.effectTime
					found = true
				}
			}
			seg := cut - c.now
			c.integrate(s, seg)
			remaining -= remaining * (seg / dur)
			c.now = cut
			if found {
				c.applyEffects(c.now)
			} else {
				break
			}
		}
	}
}

// FixedStrategy returns a strategy that pins the whole iteration to
// one frequency — the baseline configuration of the evaluation.
func FixedStrategy(f units.MHz) *core.Strategy {
	return &core.Strategy{
		BaselineMHz: f,
		Points:      []core.FreqPoint{{OpIndex: 0, FreqMHz: f}},
	}
}

// RunStable repeats the iteration until the die temperature stabilizes
// (like the paper's "collect once training is stable") and returns the
// last iteration's measurements.
func (e *Executor) RunStable(trace []op.Spec, strat *core.Strategy, th *thermal.State, opt Options, maxIters int, tolC float64) (*Result, error) {
	var last *Result
	for i := 0; i < maxIters; i++ {
		res, err := e.Run(trace, strat, th, opt)
		if err != nil {
			return nil, err
		}
		last = res
		if diff := float64(th.Equilibrium(units.Watt(res.MeanSoCW)) - th.TempC()); diff < tolC && diff > -tolC {
			break
		}
	}
	if last == nil {
		return nil, fmt.Errorf("executor: no iterations executed")
	}
	return last, nil
}
