package ga

import (
	"context"
	"fmt"
	"testing"
)

// intSumProblem is a PartialScorer whose partial sums are small
// integers stored in float64. Every sum stays far below 2^53, so delta
// updates are exact (no reassociation error): the incremental path and
// the serial Score path must produce byte-identical trajectories,
// which is the strongest possible check of the delta bookkeeping
// (tail-swap deltas, mutation deltas, periodic re-walks, migrated
// sums, the spare-slot child).
type intSumProblem struct {
	weights [][]float64 // weights[gene][allele], small integers
	alleles int
}

func newIntSumProblem(genes, alleles int) *intSumProblem {
	w := make([][]float64, genes)
	for g := range w {
		w[g] = make([]float64, alleles)
		for a := range w[g] {
			w[g][a] = float64((g*31 + a*17 + 5) % 97)
		}
	}
	return &intSumProblem{weights: w, alleles: alleles}
}

func (p *intSumProblem) Genes() int     { return len(p.weights) }
func (p *intSumProblem) Alleles() int   { return p.alleles }
func (p *intSumProblem) Seeds() [][]int { return nil }
func (p *intSumProblem) Score(ind []int) float64 {
	narrow := make([]uint8, len(ind))
	for i, a := range ind {
		narrow[i] = uint8(a)
	}
	sums := make([]float64, 2)
	p.InitSumsBatch(narrow, 1, sums)
	return p.ScoreSums(sums)
}
func (p *intSumProblem) SumCount() int { return 2 }
func (p *intSumProblem) InitSumsBatch(genes []uint8, count int, sums []float64) {
	n := len(p.weights)
	for c := 0; c < count; c++ {
		var s0, s1 float64
		for g, a := range genes[c*n : (c+1)*n] {
			s0 += p.weights[g][a]
			s1 += p.weights[g][a] * p.weights[g][a]
		}
		sums[2*c], sums[2*c+1] = s0, s1
	}
}
func (p *intSumProblem) UpdateSums(sums []float64, gene, oldAllele, newAllele int) {
	o, n := p.weights[gene][oldAllele], p.weights[gene][newAllele]
	sums[0] += n - o
	sums[1] += n*n - o*o
}
func (p *intSumProblem) ScoreSums(sums []float64) float64 {
	// Reward large linear sum, penalize spread; integer-valued inputs
	// keep the arithmetic exact through the division.
	return sums[0] - sums[1]/1024
}

// plain hides p's PartialScorer methods behind the bare Problem
// interface, which is how a test selects the serial Score path for a
// problem that would otherwise take the incremental one.
func plain(p Problem) Problem { return struct{ Problem }{p} }

func TestIncrementalMatchesPlainBitwise(t *testing.T) {
	p := newIntSumProblem(24, 8)
	if _, ok := plain(p).(PartialScorer); ok {
		t.Fatal("plain wrapper still exposes PartialScorer")
	}
	cfg := DefaultConfig()
	cfg.PopSize = 50
	cfg.Generations = 200 // crosses several sumRefreshEvery and migration boundaries
	for _, islands := range []int{1, 3} {
		cfg.Islands = islands
		inc, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunContext(context.Background(), plain(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("islands=%d incremental vs plain", islands), inc, ref)
	}
}

func TestIncrementalWorkerCountInvariance(t *testing.T) {
	// Same seed must yield a byte-identical strategy regardless of the
	// worker count — each island scores on its own goroutine, so worker
	// scheduling can only reorder whole islands.
	p := newIntSumProblem(24, 8)
	cfg := DefaultConfig()
	cfg.PopSize = 50
	cfg.Generations = 120
	var ref *Result
	for i, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		res, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		sameResult(t, fmt.Sprintf("workers=%d vs workers=1", workers), ref, res)
	}
}
