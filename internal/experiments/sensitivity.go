package experiments

import (
	"fmt"
	"strings"

	"npudvfs/internal/op"
	"npudvfs/internal/workload"
)

// SensitivityRow is one operator's performance/power trade-off for a
// single frequency step down.
type SensitivityRow struct {
	Name string
	// PerfLossPct and PowerGainPct are the relative slowdown and
	// AICore power saving when stepping from FromMHz to ToMHz.
	PerfLossPct  float64
	PowerGainPct float64
	// EfficiencyRatio is power gain per unit of performance loss;
	// above 1 the trade is favourable.
	EfficiencyRatio float64
}

// SensitivityResult reproduces the observation opening Sect. 6:
// "Compute-bound operators like MatMul sacrifice 6.9% performance for
// a 7.9% power gain, while memory-bound ones like Gelu could trade a
// 2% performance drop for a 5% or greater power gain."
type SensitivityResult struct {
	FromMHz, ToMHz float64
	Rows           []SensitivityRow
}

// Sensitivity measures the per-operator trade-off of one DVFS step for
// a compute-bound MatMul, a memory-bound Gelu and the representative
// operators.
func (l *Harness) Sensitivity(fromMHz, toMHz float64) *SensitivityResult {
	res := &SensitivityResult{FromMHz: fromMHz, ToMHz: toMHz}
	subjects := []op.Spec{
		{
			Name: "MatMul", Shape: "4096x12288x12288", Class: op.Compute,
			Scenario: op.PingPongIndep, Blocks: 8,
			LoadBytes: (4096*12288 + 12288*12288) * 2 / 8, StoreBytes: 4096 * 12288 * 2 / 8,
			CoreCycles: 4096 * 12288 * 12288 / workload.CubeMACsPerCycle / 8,
			CorePipe:   op.Cube, L2Hit: 0.75, PrePostTime: 2,
		},
		{
			Name: "Gelu", Shape: "200M", Class: op.Compute,
			Scenario: op.PingPongFreeIndep, Blocks: 6,
			LoadBytes: 200e6 * 2 / 6, StoreBytes: 200e6 * 2 / 6,
			CoreCycles: 200e6 * 1.5 / workload.VecElemsPerCycle / 6,
			CorePipe:   op.Vector, L2Hit: 0.12, PrePostTime: 2,
		},
	}
	subjects = append(subjects, workload.RepresentativeOps()...)
	for i := range subjects {
		s := &subjects[i]
		tHi := l.Chip.Time(s, fromMHz)
		tLo := l.Chip.Time(s, toMHz)
		// Mean AICore power over the operator at a representative
		// warm ΔT.
		const deltaT = 25
		pHi := l.Ground.AICorePower(s, fromMHz, deltaT)
		pLo := l.Ground.AICorePower(s, toMHz, deltaT)
		row := SensitivityRow{
			Name:         s.Name,
			PerfLossPct:  100 * (tLo/tHi - 1),
			PowerGainPct: 100 * (1 - pLo/pHi),
		}
		if row.PerfLossPct > 1e-9 {
			row.EfficiencyRatio = row.PowerGainPct / row.PerfLossPct
		} else {
			row.EfficiencyRatio = 1e9 // effectively free
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func (r *SensitivityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sect. 6 operator sensitivity, %g -> %g MHz\n", r.FromMHz, r.ToMHz)
	fmt.Fprintf(&b, "  %-18s %10s %11s %8s\n", "operator", "perf loss", "power gain", "ratio")
	for _, row := range r.Rows {
		ratio := fmt.Sprintf("%7.2f", row.EfficiencyRatio)
		if row.EfficiencyRatio >= 1e9 {
			ratio = "   free"
		}
		fmt.Fprintf(&b, "  %-18s %9.2f%% %10.2f%% %s\n",
			row.Name, row.PerfLossPct, row.PowerGainPct, ratio)
	}
	return b.String()
}
