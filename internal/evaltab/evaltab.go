// Package evaltab implements the flat evaluation table behind the
// model-based policy evaluation hot path (core's problem): the
// per-stage, per-allele quantities a GA individual is scored from,
// stored as one stride-indexed []float64 block in structure-of-arrays
// order so scoring one gene touches one contiguous quadruple instead
// of four pointer-chased [][]float64 rows.
//
// The table also carries the Eq. 17 scoring parameters and solves the
// Sect. 5.4 temperature fixed point in closed form: over a fixed
// assignment the predicted SoC power is affine in ΔT
// (P = soc0 + γ·ΔT·v̄), so ΔT = k·P(ΔT) has the exact solution
// k·soc0/(1-k·γ·v̄) — see powermodel.SolveDeltaTLinear.
//
// Scoring is exposed both whole-vector (InitSums + ScoreSums, which is
// exactly what Score does) and incrementally (UpdateSums applies a
// one-gene delta in O(1)), which is what lets the GA engine score a
// crossover/mutation child in O(changed genes). The accumulation-order
// invariant (DESIGN.md §10): InitSums walks genes in ascending order
// with one independent accumulator per quantity, so a full re-walk of
// the same vector is bit-identical no matter who calls it; delta
// updates are allowed to differ from a re-walk only by floating-point
// reassociation.
//
// This package works in raw float64 throughout — it is the documented
// unit boundary (like npu and powersim, it is not in dvfslint's
// unit-typed set); the typed packages wrap Prediction into their
// units-typed forms at the API edge.
package evaltab

import (
	"npudvfs/internal/powermodel"
	"npudvfs/internal/units"
)

// Quad is the number of quantities stored per (stage, allele) cell and
// accumulated per assignment.
const Quad = 4

// Indices of the per-assignment accumulators (and of the quantities
// within a table cell).
const (
	SumTime  = iota // predicted duration, µs
	SumSocE         // SoC energy excluding the temperature term, W·µs
	SumCoreE        // AICore energy excluding the temperature term, W·µs
	SumVT           // ∫V dt for the temperature term, V·µs
)

// Prediction is the raw model prediction of an assignment.
type Prediction struct {
	TimeMicros float64
	SoCWatts   float64
	CoreWatts  float64
	DeltaTC    float64
}

// Table holds the precomputed per-stage, per-allele quadruples and the
// scoring parameters. Cell (s, g) lives at vals[(s*alleles+g)*Quad :
// ...+Quad] in (time, socE, coreE, vt) order.
type Table struct {
	stages  int
	alleles int
	stride  int // alleles*Quad: width of one stage row
	vals    []float64

	// K is the equilibrium temperature rise per SoC watt (Eq. 15);
	// GammaSoC/GammaCore the leakage temperature coefficients
	// (dP/dΔT per volt). TemperatureAware mirrors the power model's
	// ablation switch: when false, ΔT is pinned to zero.
	K                float64
	GammaSoC         float64
	GammaCore        float64
	TemperatureAware bool

	// PerBaseline is 1/µs at the all-baseline assignment and PerLB the
	// Eq. 17 compliance bound; the problem builder sets both after the
	// baseline prediction.
	PerBaseline float64
	PerLB       float64
}

// New returns a zeroed table for stages×alleles cells.
func New(stages, alleles int) *Table {
	return &Table{
		stages:  stages,
		alleles: alleles,
		stride:  alleles * Quad,
		vals:    make([]float64, stages*alleles*Quad),
	}
}

// Stages returns the number of stages (genes).
func (t *Table) Stages() int { return t.stages }

// Alleles returns the number of alleles per gene.
func (t *Table) Alleles() int { return t.alleles }

// SumCount returns the length of a partial-sum vector (ga.PartialScorer).
func (t *Table) SumCount() int { return Quad }

// Add accumulates one operator's contribution into the (stage, allele)
// cell: predicted duration, SoC and AICore energies excluding the
// temperature term, and the ∫V dt increment.
func (t *Table) Add(stage, allele int, dur, socE, coreE, vt float64) {
	c := t.vals[stage*t.stride+allele*Quad:]
	c[SumTime] += dur
	c[SumSocE] += socE
	c[SumCoreE] += coreE
	c[SumVT] += vt
}

// InitSums fills sums (length Quad) with the assignment's accumulators
// by a full walk in ascending gene order — the canonical accumulation
// order every re-walk must reproduce bit-identically.
func (t *Table) InitSums(ind []int, sums []float64) {
	var dur, socE, coreE, vt float64
	for s, g := range ind {
		c := t.vals[s*t.stride+g*Quad:]
		dur += c[SumTime]
		socE += c[SumSocE]
		coreE += c[SumCoreE]
		vt += c[SumVT]
	}
	sums[SumTime] = dur
	sums[SumSocE] = socE
	sums[SumCoreE] = coreE
	sums[SumVT] = vt
}

// UpdateSums applies the delta of changing one gene from oldAllele to
// newAllele. The result may differ from a full re-walk by
// floating-point reassociation only (callers bound the drift by
// periodically re-walking; see the ga engine).
func (t *Table) UpdateSums(sums []float64, gene, oldAllele, newAllele int) {
	row := gene * t.stride
	o := t.vals[row+oldAllele*Quad:]
	n := t.vals[row+newAllele*Quad:]
	sums[SumTime] += n[SumTime] - o[SumTime]
	sums[SumSocE] += n[SumSocE] - o[SumSocE]
	sums[SumCoreE] += n[SumCoreE] - o[SumCoreE]
	sums[SumVT] += n[SumVT] - o[SumVT]
}

// PredictSums computes iteration time, mean powers and the closed-form
// self-consistent temperature rise from accumulated sums.
func (t *Table) PredictSums(sums []float64) Prediction {
	dur := sums[SumTime]
	if dur <= 0 {
		return Prediction{}
	}
	soc0 := sums[SumSocE] / dur // mean SoC power before the temperature term
	vMean := sums[SumVT] / dur  // time-weighted mean voltage
	deltaT := 0.0
	if t.TemperatureAware {
		deltaT = float64(powermodel.SolveDeltaTLinear(
			units.CelsiusPerWatt(t.K), units.Watt(soc0), t.GammaSoC*vMean))
	}
	return Prediction{
		TimeMicros: dur,
		SoCWatts:   soc0 + t.GammaSoC*deltaT*vMean,
		CoreWatts:  sums[SumCoreE]/dur + t.GammaCore*deltaT*vMean,
		DeltaTC:    deltaT,
	}
}

// Predict computes the prediction for an assignment from scratch.
func (t *Table) Predict(ind []int) Prediction {
	var sums [Quad]float64
	t.InitSums(ind, sums[:])
	return t.PredictSums(sums[:])
}

// batchTile is the number of candidates a batch walk accumulates at
// once. The tile's accumulator block (batchTile×Quad float64, 2 KB)
// lives on the stack and stays L1-resident across the whole
// gene-major sweep, so each table row loaded from memory is reused
// batchTile times instead of once — the entire point of the batch
// entry points below.
const batchTile = 64

// InitSumsBatch fills count partial-sum quadruples (candidate c's
// sums at sums[c*Quad : (c+1)*Quad]) from full walks of count
// candidates stored back to back in genes, one byte per gene — the GA
// engine's population slab, swept in place (candidate c at
// genes[c*stages : (c+1)*stages]). The walk is gene-major within a
// tile: for each stage, the stage's row of the SoA table is applied
// to every candidate in the tile before moving on, turning the
// per-candidate pointer chase into contiguous passes over the table.
// Each candidate still accumulates in ascending gene order with one
// independent accumulator per quantity, so every quadruple is
// bit-identical to a per-candidate InitSums walk (ga.PartialScorer
// contract).
func (t *Table) InitSumsBatch(genes []uint8, count int, sums []float64) {
	for base := 0; base < count; base += batchTile {
		m := count - base
		if m > batchTile {
			m = batchTile
		}
		var acc [batchTile * Quad]float64
		accumTile(t, genes[base*t.stages:], m, &acc)
		copy(sums[base*Quad:(base+m)*Quad], acc[:m*Quad])
	}
}

// ScoreBatch writes the Eq. 17 fitness of count candidates (stored
// back to back in genes, as in InitSumsBatch) into scores[:count].
// Each score is bit-identical to Score of the same vector
// (ga.BatchScorer contract): the tile accumulation reproduces
// InitSums exactly and the mapping is the same ScoreSums.
func (t *Table) ScoreBatch(genes []int, count int, scores []float64) {
	for base := 0; base < count; base += batchTile {
		m := count - base
		if m > batchTile {
			m = batchTile
		}
		var acc [batchTile * Quad]float64
		accumTile(t, genes[base*t.stages:], m, &acc)
		for c := 0; c < m; c++ {
			scores[base+c] = t.ScoreSums(acc[c*Quad : (c+1)*Quad])
		}
	}
}

// accumTile accumulates the quadruples of m candidates (m ≤
// batchTile) into acc, sweeping gene-major: stage s's table row is
// reused across all m candidates while it is hot. One kernel serves
// both gene widths — the GA engine's byte genes (InitSumsBatch) and
// ScoreBatch's []int — so the two cannot drift apart.
func accumTile[G uint8 | int](t *Table, genes []G, m int, acc *[batchTile * Quad]float64) {
	stages := t.stages
	for s := 0; s < stages; s++ {
		row := t.vals[s*t.stride:]
		for c := 0; c < m; c++ {
			cell := row[int(genes[c*stages+s])*Quad:]
			a := acc[c*Quad : c*Quad+Quad]
			a[SumTime] += cell[SumTime]
			a[SumSocE] += cell[SumSocE]
			a[SumCoreE] += cell[SumCoreE]
			a[SumVT] += cell[SumVT]
		}
	}
}

// ScoreSums maps accumulated sums to the Eq. 17 fitness.
func (t *Table) ScoreSums(sums []float64) float64 {
	pred := t.PredictSums(sums)
	if pred.TimeMicros <= 0 || pred.SoCWatts <= 0 {
		return 0
	}
	per := 1 / pred.TimeMicros
	score := t.PerBaseline * t.PerBaseline / pred.SoCWatts
	if per >= t.PerLB {
		return 2 * score
	}
	rel := per / t.PerLB
	return score * rel * rel
}

// Score returns the Eq. 17 fitness of an assignment. It is exactly
// InitSums followed by ScoreSums, so whole-vector and sum-based
// scoring of the same gene vector are bit-identical.
func (t *Table) Score(ind []int) float64 {
	var sums [Quad]float64
	t.InitSums(ind, sums[:])
	return t.ScoreSums(sums[:])
}
