package core_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/ga"
	"npudvfs/internal/traceio"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/strategy_golden.json from this binary's output")

// strategyHash is the SHA-256 of the compact strategy JSON — the
// canonical form dvfsd stores and the determinism contract is stated
// over (server.buildResponse).
func strategyHash(t *testing.T, s *core.Strategy) string {
	t.Helper()
	var pretty, compact bytes.Buffer
	if err := traceio.WriteStrategy(&pretty, s); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestStrategyGoldenAcrossCommits pins generated strategies to hashes
// produced by the commit *before* the GA engine was collapsed to two
// scoring paths (PR 12). Every other byte-identity test compares two
// runs of one binary; this one fails if an engine change moves a
// trajectory at all. Islands is pinned, so the hashes do not depend on
// the host's core count. The GPT-3 entries (1,446 genes, the shape
// whose per-child copy dominates a search) were generated at the
// parent of the commit that narrowed genes to one byte (PR 16).
func TestStrategyGoldenAcrossCommits(t *testing.T) {
	search := func(islands int) ga.Config {
		cfg := ga.DefaultConfig()
		cfg.PopSize, cfg.Generations, cfg.Seed, cfg.Islands = 64, 64, 12, islands
		return cfg
	}
	got := map[string]string{}
	for _, name := range []string{"resnet50", "bert", "gpt3"} {
		in := labInput(t, name)
		for _, islands := range []int{1, 4} {
			cfg := core.DefaultConfig()
			cfg.GA = search(islands)
			strat, _, _, err := core.GenerateContext(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("core/%s/islands=%d", name, islands)] = strategyHash(t, strat)
		}
	}

	path := filepath.Join("testdata", "strategy_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, test produced %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: strategy hash %s, golden (parent commit) %s", k, got[k], w)
		}
	}
}
