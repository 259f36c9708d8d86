package ga

import (
	"context"
	"testing"
)

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

// TestEngineRunAllocatesNothing is the zero-allocation contract of the
// search loop (DESIGN.md §10): a reused Engine's Run allocates nothing
// on either scoring path, with one island or two. 130 generations run
// breed and makeChild, rank, scoreIncremental across two
// every-64-generations re-walks, and at two islands eight migrations.
func TestEngineRunAllocatesNothing(t *testing.T) {
	problems := []struct {
		name string
		p    Problem
	}{
		{"incremental", newIntSumProblem(24, 8)},
		{"plain", &matchProblem{target: target(24, 8), alleles: 8}},
	}
	for _, tc := range problems {
		for _, islands := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.PopSize = 64
			cfg.Generations = 130
			cfg.Islands = islands
			cfg.Workers = 1
			e, err := New(tc.p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var runErr error
			n := exactAllocs(3, func() { _, runErr = e.Run(context.Background()) })
			if runErr != nil {
				t.Fatal(runErr)
			}
			if n != 0 {
				t.Errorf("%s islands=%d: %v allocations over 3 warm runs, want 0", tc.name, islands, n)
			}
		}
	}
}
