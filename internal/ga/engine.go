package ga

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The island model's fixed schedule: migration runs every
// DefaultMigrationEvery generations, each island sending its
// DefaultMigrants best individuals (clamped to half the smallest
// island) to its ring successor. The cadence is coarse enough
// that islands diverge usefully between exchanges (the whole point of
// the model) and fine enough that a breakthrough on one island
// reaches all of them within a small fraction of a 600-generation
// search.
const (
	DefaultMigrationEvery = 16
	DefaultMigrants       = 2
)

// maxAlleles is the allele ceiling of the one-byte gene (see the
// package comment).
const maxAlleles = 256

// minDefaultIslandPop is the smallest per-island population the
// default will create; below ~32 individuals an island's rank
// selection has too few distinct ranks to search usefully.
const minDefaultIslandPop = 32

// DefaultIslands returns the island count used when Config.Islands is
// zero: two islands, or one when the population cannot give each
// island minDefaultIslandPop individuals. The count is a function of
// the population alone — never of GOMAXPROCS or Config.Workers — so a
// search is byte-identical on every host and at every worker count
// (the determinism contract).
func DefaultIslands(popSize int) int {
	return max(1, min(2, popSize/minDefaultIslandPop))
}

// Engine is a reusable search instance: one validated (Problem,
// Config) pair with every island slab and scratch buffer
// preallocated. Run may be called repeatedly — each call re-seeds and
// reproduces byte-identical results — and allocates nothing in steady
// state on the incremental path. An Engine is not safe for concurrent
// Run calls.
type Engine struct {
	p Problem
	// ps is p's PartialScorer view; inc (ps != nil) selects the
	// incremental scoring path over the serial Score path.
	ps  PartialScorer
	inc bool
	cfg Config

	n        int
	alleles  int
	sumN     int
	workers  int
	migrants int

	islands     []island
	history     []float64
	best        []int
	islandEvals []int
	migrations  int

	// Migration staging: gather-then-scatter through these slabs so
	// the exchange is simultaneous (no island sees a half-migrated
	// neighbor).
	migGenes  []uint8
	migScores []float64
	migSums   []float64

	// Final-population capture (Config.CapturePopulation).
	popRows  [][]int
	popGenes []int

	res Result
}

// New validates the configuration and builds a reusable Engine.
func New(p Problem, cfg Config) (*Engine, error) {
	n, alleles := p.Genes(), p.Alleles()
	if n <= 0 {
		return nil, fmt.Errorf("ga: problem has %d genes", n)
	}
	if alleles <= 0 {
		return nil, fmt.Errorf("ga: problem has %d alleles", alleles)
	}
	if alleles > maxAlleles {
		return nil, fmt.Errorf("ga: problem has %d alleles, at most %d fit the engine's one-byte genes", alleles, maxAlleles)
	}
	if cfg.PopSize < 2 {
		return nil, fmt.Errorf("ga: population size %d too small", cfg.PopSize)
	}
	if cfg.Generations <= 0 {
		return nil, fmt.Errorf("ga: %d generations", cfg.Generations)
	}
	if cfg.Elitism < 0 || cfg.Elitism >= cfg.PopSize {
		return nil, fmt.Errorf("ga: elitism %d incompatible with population %d", cfg.Elitism, cfg.PopSize)
	}
	for _, w := range cfg.WarmStart {
		if len(w) != n {
			return nil, fmt.Errorf("ga: warm-start individual of length %d, want %d", len(w), n)
		}
		if err := checkAlleles(w, alleles); err != nil {
			return nil, err
		}
	}

	nIsl := cfg.Islands
	switch {
	case nIsl < 0:
		return nil, fmt.Errorf("ga: island count %d", cfg.Islands)
	case nIsl == 0:
		nIsl = DefaultIslands(cfg.PopSize)
		// The default never errors: shrink until every island can hold
		// its elites plus at least one bred pair.
		for nIsl > 1 && cfg.PopSize/nIsl <= cfg.Elitism+1 {
			nIsl--
		}
	case nIsl > cfg.PopSize/2:
		return nil, fmt.Errorf("ga: %d islands cannot split population %d (2 individuals per island minimum)", nIsl, cfg.PopSize)
	}
	minSize := cfg.PopSize / nIsl
	if nIsl > 1 && cfg.Elitism >= minSize {
		return nil, fmt.Errorf("ga: elitism %d incompatible with island size %d", cfg.Elitism, minSize)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	e := &Engine{
		p:       p,
		cfg:     cfg,
		n:       n,
		alleles: alleles,
		workers: workers,
	}
	if ps, ok := p.(PartialScorer); ok && ps.SumCount() > 0 {
		e.ps = ps
		e.inc = true
		e.sumN = ps.SumCount()
	}

	migrants := min(DefaultMigrants, minSize/2)
	if nIsl == 1 {
		migrants = 0
	}
	e.migrants = migrants

	e.islands = make([]island, nIsl)
	rem := cfg.PopSize % nIsl
	for i := range e.islands {
		size := cfg.PopSize / nIsl
		if i < rem {
			size++
		}
		e.islands[i].init(e, i, size)
	}
	e.history = make([]float64, 0, cfg.Generations+1)
	e.best = make([]int, n)
	e.islandEvals = make([]int, nIsl)
	if migrants > 0 {
		e.migGenes = make([]uint8, nIsl*migrants*n)
		e.migScores = make([]float64, nIsl*migrants)
		if e.inc {
			e.migSums = make([]float64, nIsl*migrants*e.sumN)
		}
	}
	if cfg.CapturePopulation {
		e.popRows = make([][]int, cfg.PopSize)
		e.popGenes = make([]int, cfg.PopSize*n)
	}
	return e, nil
}

// Run executes the search under ctx and returns the engine-owned
// result: Best, History, IslandEvaluations and Population alias
// engine slabs, valid until the next Run call. Callers that need a
// caller-owned result use Result.Clone (RunContext does). Repeat
// calls reproduce byte-identical results: the RNG streams re-seed and
// the populations re-initialize from scratch.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	gens := e.cfg.Generations
	nIsl := len(e.islands)
	for i := range e.islands {
		e.islands[i].reset(e)
	}
	e.history = e.history[:0]
	e.migrations = 0

	// Initial population: problem seeds then warm-start vectors,
	// dealt round-robin across islands (overflowing to the next
	// island with space, dropped once all are full — the single-
	// population engine truncated at PopSize the same way), then each
	// island fills its remainder from its own RNG stream.
	idx := 0
	for _, s := range e.p.Seeds() {
		if len(s) != e.n {
			return nil, fmt.Errorf("ga: seed of length %d, want %d", len(s), e.n)
		}
		if err := checkAlleles(s, e.alleles); err != nil {
			return nil, err
		}
		e.place(idx, s)
		idx++
	}
	for _, w := range e.cfg.WarmStart {
		e.place(idx, w) // length- and allele-validated in New
		idx++
	}
	for i := range e.islands {
		isl := &e.islands[i]
		isl.fillRandom(e)
		isl.scoreInitial(e)
		isl.evals += isl.size
		isl.rank()
		isl.hist[0] = isl.sc[isl.perm[0]]
	}
	e.history = append(e.history, e.globalBest(0))

	// Islands run independently between barriers — every
	// DefaultMigrationEvery generations, or the whole search when there
	// is one island and nothing to exchange — and elites migrate at
	// each barrier but the last (nothing breeds from the final
	// generation).
	for done := 0; done < gens; {
		segEnd := gens
		if nIsl > 1 {
			segEnd = min(done+DefaultMigrationEvery, gens)
		}
		if err := e.runSegment(ctx, done+1, segEnd); err != nil {
			return nil, err
		}
		done = segEnd
		if done < gens {
			e.migrate()
		}
	}
	for g := 1; g <= gens; g++ {
		e.history = append(e.history, e.globalBest(g))
	}
	return e.assemble(), nil
}

// checkAlleles rejects an initial individual (seed or warm-start
// vector) with an allele outside [0, alleles). Unchecked, such an
// allele would index the neighbouring stage's table cells — a wrong
// score, no error — and narrowing to a byte would wrap it on top.
func checkAlleles(vec []int, alleles int) error {
	for i, g := range vec {
		if g < 0 || g >= alleles {
			return fmt.Errorf("ga: initial individual has allele %d at gene %d, want [0, %d)", g, i, alleles)
		}
	}
	return nil
}

// place narrows one validated initial individual into the population,
// round-robin by arrival index across islands.
func (e *Engine) place(idx int, vec []int) {
	nIsl := len(e.islands)
	for probe := 0; probe < nIsl; probe++ {
		isl := &e.islands[(idx+probe)%nIsl]
		if isl.filled < isl.size {
			dst := isl.pop[isl.filled].genes
			for i, g := range vec {
				dst[i] = uint8(g)
			}
			isl.filled++
			return
		}
	}
}

// runSegment advances every island through generations (from..to],
// fanning islands over the worker pool. Islands never touch shared
// state mid-segment, so the fan-out is lock-free and scheduling-
// independent; with one worker (or one island) it degenerates to an
// inline loop with zero goroutine overhead.
func (e *Engine) runSegment(ctx context.Context, from, to int) error {
	w := e.workers
	if w > len(e.islands) {
		w = len(e.islands)
	}
	if w <= 1 {
		for i := range e.islands {
			e.islands[i].runGens(ctx, e, from, to)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(e.islands) {
						return
					}
					e.islands[i].runGens(ctx, e, from, to)
				}
			}()
		}
		wg.Wait()
	}
	for i := range e.islands {
		if err := e.islands[i].err; err != nil {
			return err
		}
	}
	return nil
}

// migrate exchanges elites over the fixed ring topology: island i's
// top-migrants individuals replace the worst slots of island
// (i+1) mod N. Gather-then-scatter through the staging slabs makes
// the exchange simultaneous and order-free; re-ranking afterwards
// restores every island's permutation. Runs on the coordinator
// between segments — the only cross-island data motion in a search.
func (e *Engine) migrate() {
	n, m, sumN := e.n, e.migrants, e.sumN
	nIsl := len(e.islands)
	for i := range e.islands {
		isl := &e.islands[i]
		for j := 0; j < m; j++ {
			src := &isl.pop[isl.perm[j]]
			copy(e.migGenes[(i*m+j)*n:(i*m+j+1)*n], src.genes)
			e.migScores[i*m+j] = src.score
			if e.inc {
				copy(e.migSums[(i*m+j)*sumN:(i*m+j+1)*sumN], src.sums)
			}
		}
	}
	for i := range e.islands {
		dst := &e.islands[(i+1)%nIsl]
		for j := 0; j < m; j++ {
			slot := &dst.pop[dst.perm[dst.size-m+j]]
			copy(slot.genes, e.migGenes[(i*m+j)*n:(i*m+j+1)*n])
			slot.score = e.migScores[i*m+j]
			if e.inc {
				copy(slot.sums, e.migSums[(i*m+j)*sumN:(i*m+j+1)*sumN])
			}
		}
	}
	e.migrations += nIsl * m
	for i := range e.islands {
		e.islands[i].rank()
	}
}

// globalBest returns the best score across islands after generation g
// (a fixed-order reduction; ties keep the first island).
func (e *Engine) globalBest(g int) float64 {
	b := e.islands[0].hist[g]
	for i := 1; i < len(e.islands); i++ {
		if e.islands[i].hist[g] > b {
			b = e.islands[i].hist[g]
		}
	}
	return b
}

// assemble builds the engine-owned Result from the final island
// states; every reduction runs in ascending island order with
// first-island-wins ties, so the outcome is independent of worker
// scheduling.
func (e *Engine) assemble() *Result {
	win := 0
	bestScore := e.islands[0].sc[e.islands[0].perm[0]]
	for i := 1; i < len(e.islands); i++ {
		if s := e.islands[i].sc[e.islands[i].perm[0]]; s > bestScore {
			win, bestScore = i, s
		}
	}
	wisl := &e.islands[win]
	widen(e.best, wisl.pop[wisl.perm[0]].genes)

	evals := 0
	for i := range e.islands {
		e.islandEvals[i] = e.islands[i].evals
		evals += e.islands[i].evals
	}
	e.res = Result{
		Best:              e.best,
		BestScore:         bestScore,
		History:           e.history,
		Evaluations:       evals,
		Generations:       len(e.history) - 1,
		Islands:           len(e.islands),
		Migrations:        e.migrations,
		IslandEvaluations: e.islandEvals,
	}
	if e.cfg.CapturePopulation {
		k := 0
		for i := range e.islands {
			isl := &e.islands[i]
			for r := 0; r < isl.size; r++ {
				row := e.popGenes[k*e.n : (k+1)*e.n : (k+1)*e.n]
				widen(row, isl.pop[isl.perm[r]].genes)
				e.popRows[k] = row
				k++
			}
		}
		e.res.Population = e.popRows
	}
	return &e.res
}
