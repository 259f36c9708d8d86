package executor

import (
	"math/rand"
	"sort"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/op"
	"npudvfs/internal/stats"
	"npudvfs/internal/thermal"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// This file carries a verbatim copy of the pre-optimization (seed)
// executor as a reference oracle. The production Run replaced three
// per-operator full-plan scans with monotone cursors; the rewrite is
// only correct if it is BIT-identical — every Result field compared
// with == — to the quadratic original on every trace, strategy and
// option variant. Keep this copy in sync with nothing: it is the
// frozen historical semantics.

func planSwitchesReference(e *Executor, trace []op.Spec, strat *core.Strategy, opt Options) []pendingSwitch {
	starts := make([]float64, len(trace))
	now := 0.0
	for i := range trace {
		starts[i] = now
		view := e.viewAt(strat.UncoreScaleAt(i))
		now += view.chip.Time(&trace[i], float64(strat.FreqAt(i)))
	}
	var plan []pendingSwitch
	for _, pt := range strat.Points {
		if pt.OpIndex == 0 {
			continue
		}
		anticipated := starts[pt.OpIndex] - opt.SetFreqLatencyMicros
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

func runReference(e *Executor, trace []op.Spec, strat *core.Strategy, th *thermal.State, opt Options) (*Result, error) {
	if err := validateStrategy(trace, strat); err != nil {
		return nil, err
	}
	var jitter *rand.Rand
	if opt.DelayJitterMicros > 0 {
		jitter = rand.New(rand.NewSource(opt.JitterSeed))
	}
	plan := planSwitchesReference(e, trace, strat, opt)
	freq := float64(strat.Points[0].FreqMHz)
	scale := strat.Points[0].UncoreScale
	if strat.Points[0].OpIndex != 0 {
		freq = float64(strat.BaselineMHz)
		scale = 0
	}
	view := e.viewAt(scale)

	res := &Result{}
	now := 0.0
	next := 0
	applyEffects := func(t float64) {
		for i := range plan {
			p := &plan[i]
			if p.dispatched && !p.applied && p.effectTime <= t {
				if !stats.Approx(p.freqMHz, freq) {
					freq = p.freqMHz
					res.Switches++
				}
				view = e.viewAt(p.uncoreScale)
				p.applied = true
			}
		}
	}
	integrate := func(s *op.Spec, dur float64) {
		if dur <= 0 {
			return
		}
		deltaT := float64(th.DeltaT())
		soc := view.ground.SoCPower(s, freq, deltaT)
		coreP := view.ground.AICorePower(s, freq, deltaT)
		res.EnergySoCJ += soc * dur * 1e-6
		res.EnergyCoreJ += coreP * dur * 1e-6
		th.Step(units.Micros(dur), units.Watt(soc))
	}

	for i := range trace {
		s := &trace[i]
		for j := next; j < len(plan); j++ {
			if plan[j].triggerOp > i {
				break
			}
			if plan[j].triggerOp == i && !plan[j].dispatched {
				plan[j].dispatched = true
				plan[j].effectTime = now + plan[j].offsetMicros +
					opt.SetFreqLatencyMicros + opt.ExtraDelayMicros
				if jitter != nil {
					plan[j].effectTime += jitter.Float64() * opt.DelayJitterMicros
				}
			}
		}
		if opt.Sync {
			for j := range plan {
				p := &plan[j]
				if p.targetOp == i && p.dispatched && !p.applied && p.effectTime > now {
					stall := p.effectTime - now
					integrate(nil, stall)
					res.StallMicros += stall
					now = p.effectTime
				}
			}
		}
		applyEffects(now)

		remaining := 1.0
		for remaining > 1e-12 {
			dur := view.chip.Time(s, freq) * remaining
			if dur <= 0 {
				break
			}
			cut := now + dur
			found := false
			for j := range plan {
				p := &plan[j]
				if p.dispatched && !p.applied && p.effectTime > now && p.effectTime < cut {
					cut = p.effectTime
					found = true
				}
			}
			seg := cut - now
			integrate(s, seg)
			remaining -= remaining * (seg / dur)
			now = cut
			if found {
				applyEffects(now)
			} else {
				break
			}
		}
		for next < len(plan) && plan[next].applied {
			next++
		}
	}
	res.TimeMicros = now
	if now > 0 {
		res.MeanSoCW = res.EnergySoCJ * 1e6 / now
		res.MeanCoreW = res.EnergyCoreJ * 1e6 / now
	}
	res.EndTempC = float64(th.TempC())
	return res, nil
}

// synthStrategy builds a strategy switching among grid frequencies
// (and occasionally uncore scales) every few operators, with switch
// times on the baseline timeline as core.GenerateContext produces them.
func synthStrategy(e *Executor, trace []op.Spec, rng *rand.Rand, withScale bool) *core.Strategy {
	grid := e.Chip.Curve.Grid()
	strat := &core.Strategy{BaselineMHz: 1800}
	prev := units.MHz(-1)
	for opIdx := 0; opIdx < len(trace); opIdx += 1 + rng.Intn(45) {
		f := grid[rng.Intn(len(grid))]
		if f == prev {
			continue
		}
		start := 0.0
		for i := 0; i < opIdx; i++ {
			start += e.Chip.Time(&trace[i], 1800)
		}
		pt := core.FreqPoint{OpIndex: opIdx, TimeMicros: units.Micros(start), FreqMHz: f}
		if withScale && rng.Intn(3) == 0 {
			pt.UncoreScale = 0.8 + 0.1*float64(rng.Intn(3))
		}
		strat.Points = append(strat.Points, pt)
		prev = f
	}
	if len(strat.Points) == 0 {
		strat.Points = append(strat.Points, core.FreqPoint{OpIndex: 0, FreqMHz: 1800})
	}
	return strat
}

func compareRuns(t *testing.T, label string, e *Executor, trace []op.Spec, strat *core.Strategy, opt Options) {
	t.Helper()
	got, err := e.Run(trace, strat, th(), opt)
	if err != nil {
		t.Fatalf("%s: optimized Run: %v", label, err)
	}
	want, err := runReference(e, trace, strat, th(), opt)
	if err != nil {
		t.Fatalf("%s: reference Run: %v", label, err)
	}
	if *got != *want {
		t.Fatalf("%s: optimized Run diverged from the seed reference:\n got %+v\nwant %+v", label, *got, *want)
	}
}

// TestRunMatchesSeedReferenceBitIdentical sweeps the Table 3 workloads
// with randomized synthetic strategies under every option variant and
// requires the cursor-based Run to reproduce the seed executor's
// Result exactly (==, not approximately).
func TestRunMatchesSeedReferenceBitIdentical(t *testing.T) {
	e := testExec()
	workloads := []struct {
		name  string
		trace []op.Spec
	}{
		{"BERT", workload.BERT().Trace[:600]},
		{"ResNet50", workload.ResNet50().Trace[:600]},
		{"ResNet152", workload.ResNet152().Trace[:600]},
		{"GPT3", workload.GPT3().Trace[:600]},
	}
	opts := []struct {
		name string
		opt  Options
	}{
		{"sync", DefaultOptions()},
		{"nosync", Options{SetFreqLatencyMicros: 1000}},
		{"extra-delay", Options{SetFreqLatencyMicros: 1000, ExtraDelayMicros: 14000}},
		{"jitter", Options{SetFreqLatencyMicros: 1000, Sync: true, DelayJitterMicros: 500, JitterSeed: 9}},
		{"nosync-jitter", Options{SetFreqLatencyMicros: 1000, DelayJitterMicros: 2000, JitterSeed: 3}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, w := range workloads {
		for trial := 0; trial < 4; trial++ {
			strat := synthStrategy(e, w.trace, rng, trial%2 == 1)
			for _, o := range opts {
				compareRuns(t, w.name+"/"+o.name, e, w.trace, strat, o.opt)
			}
		}
		// The degenerate single-point and fixed strategies too.
		compareRuns(t, w.name+"/fixed", e, w.trace, FixedStrategy(1000), DefaultOptions())
	}
}
