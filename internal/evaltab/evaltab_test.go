package evaltab

import (
	"math"
	"math/rand"
	"testing"
)

// fill populates a table with deterministic pseudo-random operator
// contributions: several Add calls per cell, as the problem builders do.
func fill(t *Table, rng *rand.Rand) {
	for s := 0; s < t.Stages(); s++ {
		for g := 0; g < t.Alleles(); g++ {
			for op := 0; op < 3; op++ {
				dur := 1 + 50*rng.Float64()
				soc := 20 + 80*rng.Float64()
				core := 10 + 40*rng.Float64()
				v := 0.7 + 0.3*rng.Float64()
				t.Add(s, g, dur, soc*dur, core*dur, v*dur)
			}
		}
	}
}

func randInd(n, alleles int, rng *rand.Rand) []int {
	ind := make([]int, n)
	for i := range ind {
		ind[i] = rng.Intn(alleles)
	}
	return ind
}

func TestScoreIsInitSumsPlusScoreSums(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New(12, 7)
	fill(tab, rng)
	tab.K = 0.09
	tab.GammaSoC = 0.4
	tab.GammaCore = 0.15
	tab.TemperatureAware = true
	tab.PerBaseline = 1.0 / 300
	tab.PerLB = 0.95 / 300

	for trial := 0; trial < 200; trial++ {
		ind := randInd(12, 7, rng)
		sums := make([]float64, Quad)
		tab.InitSums(ind, sums)
		if got, want := tab.ScoreSums(sums), tab.Score(ind); got != want {
			t.Fatalf("trial %d: ScoreSums∘InitSums = %g, Score = %g (must be bit-identical)", trial, got, want)
		}
	}
}

func TestUpdateSumsTracksFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := New(20, 9)
	fill(tab, rng)
	tab.K = 0.11
	tab.GammaSoC = 0.33
	tab.GammaCore = 0.12
	tab.TemperatureAware = true
	tab.PerBaseline = 1.0 / 500
	tab.PerLB = 0.9 / 500

	ind := randInd(20, 9, rng)
	sums := make([]float64, Quad)
	tab.InitSums(ind, sums)

	// Chain 5000 random single-gene deltas; the drifting sums must stay
	// within 1e-9 relative of a fresh full walk at every step.
	fresh := make([]float64, Quad)
	for step := 0; step < 5000; step++ {
		gene := rng.Intn(20)
		next := rng.Intn(9)
		tab.UpdateSums(sums, gene, ind[gene], next)
		ind[gene] = next

		tab.InitSums(ind, fresh)
		for q := 0; q < Quad; q++ {
			if rel := math.Abs(sums[q]-fresh[q]) / math.Max(math.Abs(fresh[q]), 1); rel > 1e-9 {
				t.Fatalf("step %d sum[%d]: delta-tracked %g vs full walk %g (rel %g)", step, q, sums[q], fresh[q], rel)
			}
		}
		if ds, fs := tab.ScoreSums(sums), tab.ScoreSums(fresh); math.Abs(ds-fs)/math.Max(math.Abs(fs), 1e-300) > 1e-9 {
			t.Fatalf("step %d: delta score %g vs full score %g", step, ds, fs)
		}
	}
}

func TestPredictMatchesManualComputation(t *testing.T) {
	tab := New(2, 2)
	// One operator per cell, hand-picked numbers.
	tab.Add(0, 0, 10, 10*30, 10*12, 10*0.8)
	tab.Add(0, 1, 8, 8*40, 8*15, 8*0.9)
	tab.Add(1, 0, 20, 20*25, 20*10, 20*0.8)
	tab.Add(1, 1, 15, 15*35, 15*14, 15*0.9)
	tab.K = 0.1
	tab.GammaSoC = 0.5
	tab.GammaCore = 0.2
	tab.TemperatureAware = true

	pred := tab.Predict([]int{1, 0})
	dur := 8.0 + 20.0
	soc0 := (8*40.0 + 20*25.0) / dur
	core0 := (8*15.0 + 20*10.0) / dur
	vMean := (8*0.9 + 20*0.8) / dur
	// Closed-form fixpoint of dt = K·(soc0 + GammaSoC·dt·vMean).
	dt := tab.K * soc0 / (1 - tab.K*tab.GammaSoC*vMean)

	if math.Abs(pred.TimeMicros-dur) > 1e-12 {
		t.Errorf("TimeMicros = %g, want %g", pred.TimeMicros, dur)
	}
	if math.Abs(pred.DeltaTC-dt)/dt > 1e-9 {
		t.Errorf("DeltaTC = %g, want %g", pred.DeltaTC, dt)
	}
	if want := soc0 + tab.GammaSoC*dt*vMean; math.Abs(pred.SoCWatts-want)/want > 1e-9 {
		t.Errorf("SoCWatts = %g, want %g", pred.SoCWatts, want)
	}
	if want := core0 + tab.GammaCore*dt*vMean; math.Abs(pred.CoreWatts-want)/want > 1e-9 {
		t.Errorf("CoreWatts = %g, want %g", pred.CoreWatts, want)
	}
}

func TestPredictTemperatureUnawarePinsDeltaT(t *testing.T) {
	tab := New(1, 1)
	tab.Add(0, 0, 10, 10*30, 10*12, 10*0.8)
	tab.K = 0.1
	tab.GammaSoC = 0.5
	tab.GammaCore = 0.2
	tab.TemperatureAware = false

	pred := tab.Predict([]int{0})
	if pred.DeltaTC != 0 {
		t.Errorf("DeltaTC = %g, want 0 when temperature-unaware", pred.DeltaTC)
	}
	if pred.SoCWatts != 30 || pred.CoreWatts != 12 {
		t.Errorf("powers = %g/%g, want the raw means 30/12", pred.SoCWatts, pred.CoreWatts)
	}
}

func TestZeroDurationEdges(t *testing.T) {
	tab := New(2, 2)
	tab.PerBaseline = 1
	tab.PerLB = 1
	// All cells empty: duration 0 everywhere.
	if pred := tab.Predict([]int{0, 1}); pred != (Prediction{}) {
		t.Errorf("empty table Predict = %+v, want zero value", pred)
	}
	if s := tab.Score([]int{0, 1}); s != 0 {
		t.Errorf("empty table Score = %g, want 0", s)
	}
}

func TestScoreEq17Branches(t *testing.T) {
	tab := New(1, 2)
	tab.Add(0, 0, 100, 100*50, 100*20, 100*0.8) // slow allele
	tab.Add(0, 1, 80, 80*60, 80*25, 80*0.9)     // fast allele
	tab.PerBaseline = 1.0 / 80
	tab.PerLB = 1.0 / 90 // compliance bound: at most 90 µs

	// Fast allele complies: score = 2·Per_base²/Power.
	fast := tab.Predict([]int{1})
	if want := 2 * tab.PerBaseline * tab.PerBaseline / fast.SoCWatts; tab.Score([]int{1}) != want {
		t.Errorf("compliant score = %g, want %g", tab.Score([]int{1}), want)
	}
	// Slow allele violates: score = (per/perLB)²·Per_base²/Power.
	slow := tab.Predict([]int{0})
	rel := (1 / slow.TimeMicros) / tab.PerLB
	if want := rel * rel * tab.PerBaseline * tab.PerBaseline / slow.SoCWatts; tab.Score([]int{0}) != want {
		t.Errorf("penalized score = %g, want %g", tab.Score([]int{0}), want)
	}
}

// TestBatchMatchesScalarBitIdentical pins the ga.BatchScorer /
// ga.PartialScorer batch contracts: the gene-major tiled sweep must
// reproduce the scalar InitSums walk and Score bit for bit, for every
// candidate, across tile boundaries (the cohort spans two full tiles
// plus a ragged tail) and at the empty and single-candidate edges.
func TestBatchMatchesScalarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const stages, alleles = 17, 6
	tab := New(stages, alleles)
	fill(tab, rng)
	tab.K = 0.09
	tab.GammaSoC = 0.4
	tab.GammaCore = 0.15
	tab.TemperatureAware = true
	tab.PerBaseline = 1.0 / 300
	tab.PerLB = 0.95 / 300

	for _, count := range []int{0, 1, 63, 64, 65, 150} {
		genes := make([]int, count*stages)
		narrow := make([]uint8, count*stages) // the GA engine's gene width
		for i := range genes {
			genes[i] = rng.Intn(alleles)
			narrow[i] = uint8(genes[i])
		}
		scores := make([]float64, count)
		sums := make([]float64, count*Quad)
		tab.ScoreBatch(genes, count, scores)
		tab.InitSumsBatch(narrow, count, sums)
		one := make([]float64, Quad)
		for c := 0; c < count; c++ {
			ind := genes[c*stages : (c+1)*stages]
			if got, want := scores[c], tab.Score(ind); got != want {
				t.Fatalf("count %d candidate %d: ScoreBatch = %g, Score = %g (must be bit-identical)", count, c, got, want)
			}
			tab.InitSums(ind, one)
			for q := 0; q < Quad; q++ {
				if got, want := sums[c*Quad+q], one[q]; got != want {
					t.Fatalf("count %d candidate %d sum %d: InitSumsBatch = %g, InitSums = %g", count, c, q, got, want)
				}
			}
		}
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

// TestScoringAllocatesNothing is the zero-allocation contract of the
// GA's scoring kernels (DESIGN.md §10): Predict, Score and both batch
// walks allocate nothing, the batch ones over a cohort of two full
// tiles and a ragged tail. 100 calls span several doublings of any
// amortized append or map growth, which allocates on a few calls only.
func TestScoringAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const stages, alleles, count = 17, 6, 150
	tab := New(stages, alleles)
	fill(tab, rng)
	tab.K = 0.09
	tab.GammaSoC = 0.4
	tab.GammaCore = 0.15
	tab.TemperatureAware = true
	tab.PerBaseline = 1.0 / 300
	tab.PerLB = 0.95 / 300

	genes := randInd(count*stages, alleles, rng)
	narrow := make([]uint8, len(genes))
	for i, g := range genes {
		narrow[i] = uint8(g)
	}
	ind := genes[:stages]
	scores := make([]float64, count)
	sums := make([]float64, count*Quad)
	var sink float64
	for name, f := range map[string]func(){
		"Predict":       func() { sink += tab.Predict(ind).SoCWatts },
		"Score":         func() { sink += tab.Score(ind) },
		"InitSumsBatch": func() { tab.InitSumsBatch(narrow, count, sums) },
		"ScoreBatch":    func() { tab.ScoreBatch(genes, count, scores) },
	} {
		if n := exactAllocs(100, f); n != 0 {
			t.Errorf("%s: %v allocations over 100 calls, want 0", name, n)
		}
	}
	if sink == 0 {
		t.Fatal("scoring returned zeros")
	}
}
