package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"npudvfs/internal/classify"
	"npudvfs/internal/ga"
	"npudvfs/internal/preprocess"
)

// TestSameSeedStrategyIdenticalAcrossWorkers pins the determinism
// contract end to end on the real problem: the same GA seed must yield
// a byte-identical strategy no matter how many scoring workers run.
func TestSameSeedStrategyIdenticalAcrossWorkers(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	cfg.GA.Generations = 40
	var refStrat *Strategy
	var refRes *ga.Result
	for i, workers := range []int{1, 4, 16} {
		cfg.GA.Workers = workers
		strat, _, res, err := Generate(f.input, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refStrat, refRes = strat, res
			continue
		}
		if !reflect.DeepEqual(strat.Points, refStrat.Points) {
			t.Fatalf("workers=%d: strategy diverged from workers=1:\n%v\nvs\n%v", workers, strat.Points, refStrat.Points)
		}
		if res.BestScore != refRes.BestScore || !reflect.DeepEqual(res.Best, refRes.Best) {
			t.Fatalf("workers=%d: GA result diverged (%v vs %v)", workers, res.BestScore, refRes.BestScore)
		}
	}
}

// TestDeltaScoringMatchesFullOnRealProblem drives the PartialScorer
// surface of the real BERT problem with randomized delta chains and
// bounds the drift from a full re-walk at 1e-9 relative.
func TestDeltaScoringMatchesFullOnRealProblem(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	results := classify.Trace(f.input.Profile)
	stages, err := preprocess.Stages(f.input.Profile, results, float64(cfg.FAIMicros))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(f.input, cfg, stages)
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := ev.Problem().(ga.PartialScorer)
	if !ok {
		t.Fatal("core problem does not implement ga.PartialScorer")
	}
	n, alleles := ps.Genes(), ps.Alleles()
	rng := rand.New(rand.NewSource(7))
	ind := make([]int, n)
	narrow := make([]uint8, n) // the GA engine's gene width
	for i := range ind {
		ind[i] = rng.Intn(alleles)
		narrow[i] = uint8(ind[i])
	}
	sums := make([]float64, ps.SumCount())
	ps.InitSumsBatch(narrow, 1, sums)
	if got, want := ps.ScoreSums(sums), ps.Score(ind); got != want {
		t.Fatalf("ScoreSums∘InitSumsBatch = %g, Score = %g (contract requires bit-identity)", got, want)
	}
	fresh := make([]float64, ps.SumCount())
	for step := 0; step < 2000; step++ {
		gene := rng.Intn(n)
		next := rng.Intn(alleles)
		ps.UpdateSums(sums, gene, ind[gene], next)
		ind[gene], narrow[gene] = next, uint8(next)
		ps.InitSumsBatch(narrow, 1, fresh)
		ds, fs := ps.ScoreSums(sums), ps.ScoreSums(fresh)
		if math.Abs(ds-fs)/math.Max(math.Abs(fs), 1e-300) > 1e-9 {
			t.Fatalf("step %d: delta score %g drifted from full score %g", step, ds, fs)
		}
	}
}

// TestIncrementalMatchesPlainOnRealProblem runs the same search down
// both engine paths on the real BERT evaluator: as built (a
// ga.PartialScorer, scored by delta updates) and wrapped in
// struct{ ga.Problem }, which hides the partial-sum methods and
// selects one serial Score call per child. Floating-point
// reassociation on the delta path must not move the search: same
// winner, scores within 1e-9 relative, at one island and across
// migrating islands.
func TestIncrementalMatchesPlainOnRealProblem(t *testing.T) {
	f := sharedFixture(t)
	cfg := testConfig(0.02)
	ev, err := NewEvaluator(f.input, cfg, mustStages(t, f, cfg))
	if err != nil {
		t.Fatal(err)
	}
	plain := struct{ ga.Problem }{ev.Problem()}
	if _, ok := ga.Problem(plain).(ga.PartialScorer); ok {
		t.Fatal("wrapper still exposes ga.PartialScorer")
	}
	for _, islands := range []int{1, 3} {
		cfg.GA.Islands = islands
		inc, err := ga.Run(ev.Problem(), cfg.GA)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ga.Run(plain, cfg.GA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inc.Best, ref.Best) {
			t.Errorf("islands=%d: incremental best %v differs from plain best %v", islands, inc.Best, ref.Best)
		}
		if math.Abs(inc.BestScore-ref.BestScore)/math.Abs(ref.BestScore) > 1e-9 {
			t.Errorf("islands=%d: incremental best score %g drifted from plain %g", islands, inc.BestScore, ref.BestScore)
		}
		if inc.Evaluations != ref.Evaluations {
			t.Errorf("islands=%d: evaluations %d vs %d", islands, inc.Evaluations, ref.Evaluations)
		}
	}
}
