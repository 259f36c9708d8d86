//go:build race

package ga

import (
	"context"
	"fmt"
	"testing"
)

// TestIslandStressUnderRace exists for the race detector: the widest
// island/worker fan-out the engine supports, on both scoring paths,
// long enough to cross several migration barriers. Any cross-island
// access outside the segment barriers (islands are supposed to share
// nothing mid-segment) shows up here as a data race; the outcome is
// additionally checked against a single-worker run, so a silent
// ordering dependency fails even if it never trips the detector.
func TestIslandStressUnderRace(t *testing.T) {
	problems := map[string]Problem{
		"plain":       &matchProblem{target: target(16, 5), alleles: 5},
		"incremental": newIntSumProblem(24, 8),
	}
	for name, p := range problems {
		cfg := DefaultConfig()
		cfg.PopSize = 64
		cfg.Generations = 80
		cfg.Islands = 8
		cfg.Workers = 8
		wide, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		ref, err := RunContext(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("%s race stress", name), ref, wide)
	}
}
