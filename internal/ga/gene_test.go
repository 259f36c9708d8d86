package ga

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestAlleleCeiling pins the edge of the one-byte gene: 256 alleles
// are accepted and allele 255 survives the whole round trip (seed →
// narrowed slab → widened Result), 257 are an error — not a fallback
// to a second, wide engine.
func TestAlleleCeiling(t *testing.T) {
	const n = 9
	top := make([]int, n)
	for i := range top {
		top[i] = 255
	}
	cfg := smallConfig()
	cfg.Generations = 20
	cfg.Islands = 2
	cfg.CapturePopulation = true

	p := &matchProblem{target: top, alleles: 256, seeds: [][]int{top}}
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatalf("256 alleles: %v", err)
	}
	if res.BestScore != n || fmt.Sprint(res.Best) != fmt.Sprint(top) {
		t.Errorf("seeded all-255 optimum came back as %v (score %g)", res.Best, res.BestScore)
	}
	if fmt.Sprint(res.Population[0]) != fmt.Sprint(top) {
		t.Errorf("Population[0] = %v, want the all-255 elite", res.Population[0])
	}

	// Alleles above 127 on the incremental path too: same trajectory
	// as the serial reference, so no delta or batch walk mis-reads a
	// high byte.
	wide := newIntSumProblem(12, 256)
	inc, err := RunContext(context.Background(), wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunContext(context.Background(), plain(wide), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "256 alleles incremental vs plain", inc, ref)

	p.alleles = 257
	_, err = New(p, cfg)
	if err == nil || !strings.Contains(err.Error(), "257 alleles") {
		t.Errorf("257 alleles: err = %v, want a rejection naming the count", err)
	}
}

// TestInitialAllelesRangeChecked: a seed or warm-start allele outside
// [0, Alleles()) used to index the next stage's table cells (a wrong
// score, no error) and would now also wrap when narrowed to a byte.
func TestInitialAllelesRangeChecked(t *testing.T) {
	cfg := smallConfig()
	cfg.Generations = 5
	good := target(6, 9)
	for _, tc := range []struct {
		name string
		vec  []int
		want string
	}{
		{"one past the grid", []int{0, 1, 2, 9, 4, 5}, "ga: initial individual has allele 9 at gene 3, want [0, 9)"},
		{"negative", []int{-1, 1, 2, 3, 4, 5}, "ga: initial individual has allele -1 at gene 0, want [0, 9)"},
		{"wraps to a valid byte", []int{0, 1, 2, 3, 4, 256}, "ga: initial individual has allele 256 at gene 5, want [0, 9)"},
	} {
		seeded := &matchProblem{target: good, alleles: 9, seeds: [][]int{good, tc.vec}}
		if _, err := RunContext(context.Background(), seeded, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("seed, %s: err = %v, want %q", tc.name, err, tc.want)
		}
		warm := cfg
		warm.WarmStart = [][]int{good, tc.vec}
		if _, err := New(&matchProblem{target: good, alleles: 9}, warm); err == nil || err.Error() != tc.want {
			t.Errorf("warm start, %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// recordingProblem keeps every vector Score is handed (as its printed
// form, with the score returned for it) and notes the first malformed
// one.
type recordingProblem struct {
	matchProblem
	mu   sync.Mutex
	seen map[string]float64
	n    int
	bad  string
}

func (r *recordingProblem) Score(ind []int) float64 {
	s := r.matchProblem.Score(ind)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[fmt.Sprint(ind)] = s
	r.n++
	ok := len(ind) == r.Genes()
	for _, g := range ind {
		ok = ok && g >= 0 && g < r.alleles
	}
	if !ok && r.bad == "" {
		r.bad = fmt.Sprintf("Score saw %v, want %d genes in [0, %d)", ind, r.Genes(), r.alleles)
	}
	return s
}

// TestSerialPathScoresWhatItReports: a plain Problem is scored through
// the island's widening scratch, so what Score saw and what the Result
// reports must be the same vectors — every final individual was scored
// exactly as reported, and every evaluation is still one Score call.
func TestSerialPathScoresWhatItReports(t *testing.T) {
	p := &recordingProblem{
		matchProblem: matchProblem{target: target(14, 200), alleles: 200},
		seen:         map[string]float64{},
	}
	cfg := smallConfig()
	cfg.Generations = 30
	cfg.Islands = 3
	cfg.CapturePopulation = true
	res, err := RunContext(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.n != res.Evaluations {
		t.Errorf("Score called %d times, Evaluations = %d", p.n, res.Evaluations)
	}
	if s, ok := p.seen[fmt.Sprint(res.Best)]; !ok || s != res.BestScore {
		t.Errorf("Best %v (score %g) was scored as %g (seen %v)", res.Best, res.BestScore, s, ok)
	}
	if len(res.Population) != cfg.PopSize {
		t.Fatalf("captured %d individuals, want %d", len(res.Population), cfg.PopSize)
	}
	for i, ind := range res.Population {
		if _, ok := p.seen[fmt.Sprint(ind)]; !ok {
			t.Errorf("Population[%d] = %v never reached Score", i, ind)
		}
	}
	if p.bad != "" {
		t.Error(p.bad)
	}
}
