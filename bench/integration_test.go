package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestEndToEndPhaseAgainstChild runs the end-to-end phase of hot_named
// against a real dvfsd child with a 2 s window: every declared metric
// comes out, nothing fails, and the hit path stays a hit path.
func TestEndToEndPhaseAgainstChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns dvfsd; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{outDir: t.TempDir()}
	if b.bin, err = buildDaemon(ctx, root, filepath.Join(b.outDir, "bin")); err != nil {
		t.Fatal(err)
	}
	res, err := b.runWorkload(ctx, workloadByName("hot_named"), 1, 2*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < 100 {
		t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
	}
	if res.Regenerated < 12 {
		t.Errorf("regenerated %d strategies, want every one of the 12 hot keys", res.Regenerated)
	}
	for _, def := range endToEnd {
		if v, ok := res.value(def.Name); !ok || v <= 0 {
			t.Errorf("%s = %g (present %v), want a positive value", def.Name, v, ok)
		}
	}
}
