package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"npudvfs/internal/core"
	"npudvfs/internal/op"
	"npudvfs/internal/stats"
	"npudvfs/internal/units"
)

// AttributionRow aggregates the strategy's behaviour at one frequency.
type AttributionRow struct {
	FreqMHz float64
	// Stages assigned to this frequency, and their share of iteration
	// time and of compute operators.
	Stages        int
	TimeSharePct  float64
	Ops           int
	SensitiveOps  int
	MemoryBoundOp int
}

// AttributionResult explains a generated strategy: which frequencies
// it uses, how much of the iteration runs at each, and what kind of
// operators live there. The expected picture (Sect. 7.4: "the policy
// sets the LFC to low values ... while the frequency for the HFC
// remains high") is memory-bound time at the low end and compute-bound
// time pinned at maximum.
type AttributionResult struct {
	Workload string
	Target   float64
	Rows     []AttributionRow
	SetFreq  int
}

// attributionTarget is the loss target of the 10% policy Sect. 7.4
// validates.
const attributionTarget = 0.10

// Attribution generates a GPT-3 strategy at the 10% loss target and
// breaks it down by assigned frequency. Sect. 7.4 validates the 10%
// policy this way: LFC frequencies land around 1200 MHz while HFC
// stays at the maximum.
func (l *Harness) Attribution(ctx context.Context) (*AttributionResult, error) {
	gpt, err := l.gpt3Models()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.PerfLossTarget = attributionTarget
	cfg.GA.Seed = 877
	strat, _, _, err := core.GenerateContext(ctx, gpt.Input(l.Chip), cfg)
	if err != nil {
		return nil, err
	}
	type agg struct {
		stages, ops, sens, mem int
		time                   float64
	}
	byFreq := map[units.MHz]*agg{}
	prof := gpt.Baseline
	lastFreq := units.MHz(-1)
	var total float64
	for i := range prof.Trace {
		spec, dur := &prof.Trace[i], prof.DurMicros[i]
		f := strat.FreqAt(i)
		a, ok := byFreq[f]
		if !ok {
			a = &agg{}
			byFreq[f] = a
		}
		if !stats.Approx(f, lastFreq) {
			a.stages++
			lastFreq = f
		}
		a.ops++
		a.time += dur
		total += dur
		if spec.Class == op.Compute {
			r := prof.Ratios[i]
			if r[spec.CorePipe] >= 0.8 {
				a.sens++
			}
			if r[op.MTE2] >= 0.8 || r[op.MTE3] >= 0.8 {
				a.mem++
			}
		}
	}
	res := &AttributionResult{Workload: gpt.Workload.Name, SetFreq: strat.Switches(), Target: attributionTarget}
	for f, a := range byFreq {
		res.Rows = append(res.Rows, AttributionRow{
			FreqMHz:       float64(f),
			Stages:        a.stages,
			TimeSharePct:  100 * a.time / total,
			Ops:           a.ops,
			SensitiveOps:  a.sens,
			MemoryBoundOp: a.mem,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].FreqMHz < res.Rows[j].FreqMHz })
	return res, nil
}

func (r *AttributionResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy attribution on %s at the %.0f%% target (%d SetFreq per iteration)\n",
		r.Workload, r.Target*100, r.SetFreq)
	fmt.Fprintf(&b, "  %8s %7s %10s %8s %10s %10s\n",
		"MHz", "stages", "time-share", "ops", "core-bound", "mem-bound")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %8.0f %7d %9.2f%% %8d %10d %10d\n",
			row.FreqMHz, row.Stages, row.TimeSharePct, row.Ops, row.SensitiveOps, row.MemoryBoundOp)
	}
	return b.String()
}

// LowFreqMemoryBias reports the fraction of strongly memory-bound
// operators that ended up below the given frequency — the signature of
// a correct fine-grained policy.
func (r *AttributionResult) LowFreqMemoryBias(belowMHz float64) float64 {
	lowMem, totalMem := 0, 0
	for _, row := range r.Rows {
		totalMem += row.MemoryBoundOp
		if row.FreqMHz < belowMHz {
			lowMem += row.MemoryBoundOp
		}
	}
	if totalMem == 0 {
		return 0
	}
	return float64(lowMem) / float64(totalMem)
}
