package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"npudvfs/internal/powermodel"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

var updateModelGolden = flag.Bool("update", false, "rewrite testdata/model_golden.json from this binary's output")

// compactHash is the SHA-256 of v's compact JSON (json.Marshal's
// output is compact; for a ModelBundle it is traceio.WriteModels'
// bytes without the indentation). encoding/json writes a float64 in
// the shortest form that parses back to the same bits and sorts map
// keys, so two values hash alike exactly when every fitted coefficient
// is bit-identical.
func compactHash(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestModelGoldenAcrossCommits pins the fitted models — the offline
// calibration and each workload's ModelBundle (Func. 2 coefficients
// and per-operator α) — to hashes generated at the parent of the
// commit that made RunPower evaluate each operator's power terms once
// (PR 18). The strategy golden only notices a model change that
// happens to flip one of the GA's choices; this one notices any.
func TestModelGoldenAcrossCommits(t *testing.T) {
	lab := NewLab()
	off, err := lab.Offline()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		// The fitted fields only: Chip is a hardware handle.
		"offline": compactHash(t, struct {
			AICore, SoC powermodel.Domain
			K           units.CelsiusPerWatt
			AmbientC    units.Celsius
		}{off.AICore, off.SoC, off.K, off.AmbientC}),
	}
	for _, name := range []string{"vit", "resnet50", "bert"} {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := lab.BuildModels(m, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ms.Bundle()
		if err != nil {
			t.Fatal(err)
		}
		got["bundle/"+name] = compactHash(t, b)
	}

	path := filepath.Join("testdata", "model_golden.json")
	if *updateModelGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
			t.Errorf("%s: model hash %s, golden (parent commit) %s", k, got[k], w)
		}
	}
}
