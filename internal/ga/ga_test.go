package ga

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// matchProblem rewards matching a hidden target vector: a smooth,
// separable landscape the GA must solve easily.
type matchProblem struct {
	target  []int
	alleles int
	seeds   [][]int
}

func (m *matchProblem) Genes() int   { return len(m.target) }
func (m *matchProblem) Alleles() int { return m.alleles }
func (m *matchProblem) Seeds() [][]int {
	return m.seeds
}
func (m *matchProblem) Score(ind []int) float64 {
	s := 0.0
	for i, g := range ind {
		if g == m.target[i] {
			s++
		}
	}
	return s
}

func target(n, alleles int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = (i*7 + 3) % alleles
	}
	return t
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.PopSize = 60
	cfg.Generations = 150
	return cfg
}

func TestConvergesToTarget(t *testing.T) {
	p := &matchProblem{target: target(20, 5), alleles: 5}
	res, err := RunContext(context.Background(), p, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore < 18 {
		t.Errorf("best score = %g / 20, expected near-perfect convergence", res.BestScore)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	p := &matchProblem{target: target(12, 4), alleles: 4}
	cfg := smallConfig()
	a, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestScore != b.BestScore {
		t.Errorf("same-seed runs diverged: %g vs %g", a.BestScore, b.BestScore)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("same-seed best individuals differ at gene %d", i)
		}
	}
}

func TestHistoryMonotoneWithElitism(t *testing.T) {
	p := &matchProblem{target: target(15, 6), alleles: 6}
	cfg := smallConfig()
	cfg.Elitism = 2
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Generations+1 {
		t.Fatalf("history length = %d, want %d", len(res.History), cfg.Generations+1)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("best score regressed at generation %d: %g < %g",
				i, res.History[i], res.History[i-1])
		}
	}
}

func TestSeedsEnterPopulation(t *testing.T) {
	// Seed the exact target: the best score must be perfect from
	// generation zero.
	tgt := target(10, 3)
	p := &matchProblem{target: tgt, alleles: 3, seeds: [][]int{tgt}}
	cfg := smallConfig()
	cfg.Generations = 1
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.History[0] != float64(len(tgt)) {
		t.Errorf("seeded optimum not present in generation 0: best = %g", res.History[0])
	}
}

func TestSeedLengthValidation(t *testing.T) {
	p := &matchProblem{target: target(10, 3), alleles: 3, seeds: [][]int{{1, 2}}}
	if _, err := RunContext(context.Background(), p, smallConfig()); err == nil {
		t.Error("short seed: want error")
	}
}

func TestConfigValidation(t *testing.T) {
	p := &matchProblem{target: target(5, 3), alleles: 3}
	bad := []Config{
		{PopSize: 1, Generations: 10},
		{PopSize: 10, Generations: 0},
		{PopSize: 10, Generations: 5, Elitism: 10},
		{PopSize: 10, Generations: 5, Elitism: -1},
	}
	for i, cfg := range bad {
		if _, err := RunContext(context.Background(), p, cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
	}
	empty := &matchProblem{target: nil, alleles: 3}
	if _, err := RunContext(context.Background(), empty, smallConfig()); err == nil {
		t.Error("zero genes: want error")
	}
	zeroAlleles := &matchProblem{target: target(5, 3), alleles: 0}
	if _, err := RunContext(context.Background(), zeroAlleles, smallConfig()); err == nil {
		t.Error("zero alleles: want error")
	}
}

func TestParallelScoringMatchesSerial(t *testing.T) {
	p := &matchProblem{target: target(16, 4), alleles: 4}
	cfg := smallConfig()
	cfg.Islands = 2 // workers fan out over islands; one island has nothing to parallelize
	cfg.Workers = 1
	serial, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Scoring is deterministic per individual and every island draws
	// from its own rng, so worker count must not change results.
	if serial.BestScore != parallel.BestScore {
		t.Errorf("worker count changed outcome: %g vs %g", serial.BestScore, parallel.BestScore)
	}
	for i := range serial.History {
		if serial.History[i] != parallel.History[i] {
			t.Fatalf("histories diverge at generation %d", i)
		}
	}
}

// countingProblem counts actual Score invocations.
type countingProblem struct {
	matchProblem
	calls atomic.Int64
}

func (c *countingProblem) Score(ind []int) float64 {
	c.calls.Add(1)
	return c.matchProblem.Score(ind)
}

func TestEvaluationsAccounted(t *testing.T) {
	// A tiny 3^8 space forces repeated individuals: every one of them
	// must still cost a Score call, or a hardware-in-the-loop problem's
	// time budget would be under-counted.
	p := &countingProblem{matchProblem: matchProblem{target: target(8, 3), alleles: 3}}
	cfg := smallConfig()
	cfg.Generations = 10
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.PopSize + cfg.Generations*(cfg.PopSize-cfg.Elitism)
	if res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
	if got := p.calls.Load(); got != int64(res.Evaluations) {
		t.Errorf("Score called %d times, want Evaluations = %d", got, res.Evaluations)
	}
	if res.Generations != cfg.Generations || len(res.History) != cfg.Generations+1 {
		t.Errorf("Generations = %d, len(History) = %d, want %d and %d",
			res.Generations, len(res.History), cfg.Generations, cfg.Generations+1)
	}
}

func TestSingleGeneCrossoverSafe(t *testing.T) {
	// n == 1 must not panic in the tail-swap (k in [1, n-1] is empty).
	p := &matchProblem{target: []int{2}, alleles: 4}
	res, err := RunContext(context.Background(), p, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestScore != 1 {
		t.Errorf("single-gene problem not solved: %g", res.BestScore)
	}
}

// Property: crossover and mutation never produce out-of-range alleles.
func TestQuickGeneValidity(t *testing.T) {
	p := &validityProblem{genes: 12, alleles: 5}
	cfg := smallConfig()
	cfg.Generations = 50
	if _, err := RunContext(context.Background(), p, cfg); err != nil {
		t.Fatal(err)
	}
	if p.violations > 0 {
		t.Errorf("%d individuals carried out-of-range alleles", p.violations)
	}
}

type validityProblem struct {
	genes, alleles int
	violations     int
	mu             sync.Mutex
}

func (v *validityProblem) Genes() int     { return v.genes }
func (v *validityProblem) Alleles() int   { return v.alleles }
func (v *validityProblem) Seeds() [][]int { return nil }
func (v *validityProblem) Score(ind []int) float64 {
	s := 0.0
	for _, g := range ind {
		if g < 0 || g >= v.alleles {
			v.mu.Lock()
			v.violations++
			v.mu.Unlock()
		}
		s += float64(g)
	}
	return s
}

// infeasibleProblem returns NaN for any individual containing allele 0
// — the shape of a constraint-violating strategy whose predicted time
// divides by zero. The GA must treat those as worst-fitness rather
// than letting NaN sort above every finite score.
type infeasibleProblem struct {
	genes, alleles int
}

func (p *infeasibleProblem) Genes() int     { return p.genes }
func (p *infeasibleProblem) Alleles() int   { return p.alleles }
func (p *infeasibleProblem) Seeds() [][]int { return nil }
func (p *infeasibleProblem) Score(ind []int) float64 {
	s := 0.0
	for _, g := range ind {
		if g == 0 {
			return math.NaN()
		}
		s += float64(g)
	}
	return s
}

func TestNaNScoresTreatedAsWorst(t *testing.T) {
	p := &infeasibleProblem{genes: 10, alleles: 4}
	res, err := RunContext(context.Background(), p, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.BestScore) || math.IsInf(res.BestScore, 0) {
		t.Fatalf("best score %g; NaN/Inf must never win", res.BestScore)
	}
	// Every gene at its maximum is the optimum; with NaN handled as
	// -Inf the search must still find a near-optimal feasible point.
	if res.BestScore < float64(10*(4-1))-4 {
		t.Errorf("best %g, want near %d despite infeasible region", res.BestScore, 10*3)
	}
	for _, g := range res.Best {
		if g == 0 {
			t.Error("best individual is infeasible")
		}
	}
}

func TestAllNaNPopulationDoesNotPanic(t *testing.T) {
	// Every individual is infeasible: selection must still make
	// (deterministic) picks without panicking or dividing by zero.
	p := &infeasibleProblem{genes: 1, alleles: 1} // allele 0 only -> all NaN
	cfg := smallConfig()
	cfg.Generations = 5
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.BestScore, -1) {
		t.Errorf("all-NaN population best = %g, want -Inf", res.BestScore)
	}
}

func TestResultIsDefensiveCopy(t *testing.T) {
	tgt := target(10, 3)
	p := &matchProblem{target: tgt, alleles: 3, seeds: [][]int{tgt}}
	cfg := smallConfig()
	cfg.Generations = 3
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the returned slices; a second identical run must be
	// unaffected (no aliasing into live GA state or shared seeds).
	for i := range res.Best {
		res.Best[i] = -99
	}
	for i := range res.History {
		res.History[i] = -99
	}
	res2, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BestScore != float64(len(tgt)) {
		t.Errorf("second run best %g; mutating the first result corrupted state", res2.BestScore)
	}
	for i, g := range res2.Best {
		if g != tgt[i] {
			t.Fatalf("second run best individual corrupted at gene %d: %d", i, g)
		}
	}
}
