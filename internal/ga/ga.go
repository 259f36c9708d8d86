// Package ga implements the genetic-algorithm search used for DVFS
// strategy generation (Sect. 6.3): individuals are gene vectors (one
// frequency index per candidate stage), selection is score-based
// (quadratic rank weights), crossover swaps the last k genes of two
// parents, and mutation rewrites a random burst of genes.
//
// A gene is an index into the V-F table — nine points in the paper
// (Fig. 9) — so inside the engine it is one byte: every population
// slab, migration buffer and the PartialScorer batch walk are []uint8,
// and breeding a child copies Genes() bytes rather than 8·Genes()
// (GPT-3: 1,446 against 11,568; the double-buffered population 0.58 MB
// against 4.6). The API edge stays []int: Problem.Seeds are
// range-checked and narrowed on the way in, Result.Best widened on the
// way out, and Problem.Score is handed a widened copy. New rejects a
// problem with more than 256 alleles with an error rather than falling
// back to a second, wide engine: no caller has one, and a fallback
// would be a whole code path no benchmark or golden ever runs.
//
// The engine is an island model: the population is partitioned into N
// islands (Config.Islands), each with its own RNG stream and recycled
// gene/partial-sum slabs, so islands share no mutable state on the hot
// path and run on the worker pool without locks. Islands exchange
// their elite individuals over a fixed ring topology at a fixed
// generation cadence (DefaultMigrationEvery), so the whole trajectory
// — including every migration — is a pure function of the config and
// the problem, byte-identical at any worker count (the determinism
// contract; see DESIGN.md §13).
//
// There are two scoring paths, chosen by what the problem is and never
// by an option. A PartialScorer (the real problem, core's) gets
// incremental scoring — a child produced by crossover
// or a mutation burst inherits a parent's partial sums and applies
// O(changed genes) updates instead of an O(genes) re-walk, with a
// batched full re-walk of every cohort at a fixed cadence. Any other
// Problem gets one serial Score call per child on its island's
// goroutine: the hardware-in-the-loop baseline's path, and the
// reference the equivalence tests compare the first path against by
// wrapping a problem in struct{ Problem } to hide its PartialScorer
// methods. The RNG draw sequence is identical on both paths and at
// every worker count, so equal seeds reproduce runs.
//
// RunContext is the one-shot convenience; callers re-searching
// the same problem shape should hold an Engine, whose Run reuses every
// slab across searches and allocates nothing in steady state.
package ga

import (
	"context"
	"math"
)

// Problem defines the search space and objective.
type Problem interface {
	// Genes returns the individual length (number of stages).
	Genes() int
	// Alleles returns the number of values a gene can take (number of
	// supported frequency points); at most 256, a gene is one byte.
	Alleles() int
	// Score returns the fitness of an individual; higher is better.
	// Must be safe for concurrent calls (islands score concurrently).
	// A NaN score is treated as -Inf fitness (worst), so infeasible
	// individuals may signal themselves with NaN without corrupting
	// selection. Every individual the engine counts in
	// Result.Evaluations costs exactly one call — nothing is memoized —
	// so a Score that spends real hardware time keeps its budget
	// accounting honest. The vector is engine scratch, valid for the
	// call only.
	Score(individual []int) float64
	// Seeds returns individuals to include in the first generation
	// (the paper seeds the baseline all-max-frequency individual and
	// a prior LFC/HFC individual). May be nil. The engine copies the
	// vectors, so implementations may return shared storage. A seed of
	// the wrong length or with an allele outside [0, Alleles()) fails
	// the search.
	Seeds() [][]int
}

// PartialScorer is the Problem extension that selects incremental
// (delta) scoring. A conforming problem's fitness must be a pure
// function of a fixed-size vector of running sums over the gene
// vector. It is the one interface that sees the engine's own gene
// representation — InitSumsBatch sweeps the population slab in place,
// one byte per gene, each in [0, Alleles()) — while UpdateSums takes
// its gene index and alleles as plain ints, like Score's vector.
// InitSumsBatch fills the vectors with full walks in ascending
// gene order, UpdateSums adjusts one for one gene change in O(1), and
// ScoreSums maps it to the fitness, with ScoreSums∘InitSumsBatch ≡
// Score bit-identically. The engine then scores a child by copying a
// parent's sums and applying one delta per changed gene; the result
// may differ from a full re-walk by floating-point reassociation
// only, and the engine re-walks every individual at a fixed
// generation cadence to keep the drift bounded (well under 1e-9
// relative; see the equivalence tests). All methods must be safe for
// concurrent calls, like Score, which the engine never calls on a
// PartialScorer.
type PartialScorer interface {
	Problem
	// SumCount returns the length of the partial-sum vector.
	SumCount() int
	// InitSumsBatch fills count partial-sum vectors (candidate c's sums
	// occupy sums[c*SumCount() : (c+1)*SumCount()]) from full walks of
	// count candidates stored back to back in genes, one byte per gene
	// (candidate c occupies genes[c*Genes() : (c+1)*Genes()]).
	InitSumsBatch(genes []uint8, count int, sums []float64)
	// UpdateSums applies the delta of rewriting one gene from
	// oldAllele to newAllele.
	UpdateSums(sums []float64, gene, oldAllele, newAllele int)
	// ScoreSums maps accumulated sums to the fitness.
	ScoreSums(sums []float64) float64
}

// BatchScorer is a Problem extension for scoring whole cohorts:
// ScoreBatch evaluates count candidates stored back to back in genes
// (candidate c occupies genes[c*Genes() : (c+1)*Genes()]) and writes
// their fitnesses to scores[:count], each bit-identical to Score of
// the same vector. The engine does not consume it — every problem
// that implements it is also a PartialScorer and takes the incremental
// path. The declaration survives because bench/replay.go type-asserts
// it to time the evaltab batch kernel (evaltab.score_batch_ns_per_ind)
// and bench/ is frozen between benchmark-only PRs; it goes when a
// benchmark PR drops that layer.
type BatchScorer interface {
	Problem
	ScoreBatch(genes []int, count int, scores []float64)
}

// Config tunes the search. The paper's production settings are
// PopSize 200, Generations 600, MutationRate 0.15.
type Config struct {
	PopSize       int
	Generations   int
	MutationRate  float64
	CrossoverRate float64
	// Elitism is how many of the best individuals survive unchanged
	// into the next generation of each island, making each island's
	// best score (and hence the global History) monotone.
	Elitism int
	// Seed drives all stochastic choices; equal seeds reproduce runs.
	Seed int64
	// Workers bounds how many islands run concurrently; 0 means
	// GOMAXPROCS. The worker count never changes results — only
	// wall-clock.
	Workers int
	// Islands is the number of islands the population is partitioned
	// into. 0 derives a default from PopSize alone (see
	// DefaultIslands), so neither the worker count nor the host's core
	// count can change the trajectory.
	Islands int
}

// DefaultConfig returns the paper's search settings.
func DefaultConfig() Config {
	return Config{
		PopSize:       200,
		Generations:   600,
		MutationRate:  0.15,
		CrossoverRate: 0.7,
		Elitism:       2,
		Seed:          1,
	}
}

// Result reports the outcome of a search. Results returned by
// RunContext are defensive copies owned by the caller; results
// returned by Engine.Run alias engine-owned storage (see Engine.Run).
type Result struct {
	// Best is the fittest individual found across all islands.
	Best []int
	// BestScore is its fitness.
	BestScore float64
	// History records the best score across islands after each
	// generation — the convergence series of Fig. 17.
	History []float64
	// Evaluations counts individuals evaluated, the paper's
	// "strategies assessed" number, summed over islands in island
	// order.
	Evaluations int
	// Generations counts generations run (Config.Generations).
	Generations int
	// Islands is the island count the search ran with.
	Islands int
	// Migrations counts individuals transferred between islands.
	Migrations int
	// IslandEvaluations is Evaluations split per island.
	IslandEvaluations []int
}

// Clone returns a deep copy of the result, sharing no storage.
func (r *Result) Clone() *Result {
	c := *r
	c.Best = append([]int(nil), r.Best...)
	c.History = append([]float64(nil), r.History...)
	c.IslandEvaluations = append([]int(nil), r.IslandEvaluations...)
	return &c
}

// sumRefreshEvery is the generation cadence at which incremental
// scoring re-walks every child's sums from scratch. Delta updates
// differ from a re-walk by floating-point reassociation only
// (~1 ulp per touched gene); refreshing every 64 generations bounds
// the accumulated drift orders of magnitude below the 1e-9
// equivalence budget while costing under 2% extra walks.
const sumRefreshEvery = 64

// RunContext executes the genetic search under a context. Cancellation
// is checked at generation boundaries — a generation is hundreds of
// microsecond-scale Score calls, so the check granularity is
// milliseconds. A cancelled search returns an error wrapping ctx.Err()
// (so errors.Is against context.Canceled / context.DeadlineExceeded
// works) and no Result: partial populations are not exposed because
// callers treat Best as a complete search product.
//
// RunContext builds a fresh Engine per call and deep-copies the
// result, so the returned Result is caller-owned. Repeat searchers
// should hold an Engine instead.
func RunContext(ctx context.Context, p Problem, cfg Config) (*Result, error) {
	e, err := New(p, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(ctx)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// sanitize maps NaN fitness to -Inf. A NaN score (e.g. an infeasible
// individual whose predicted time divides by zero) has a bit pattern
// above +Inf's, so rank's monotone sort key would place it first and
// the population would collapse onto infeasible elites. -Inf orders
// correctly: worst.
func sanitize(score float64) float64 {
	if math.IsNaN(score) {
		return math.Inf(-1)
	}
	return score
}
