package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWarmStartFromSavedModels: a strategy searched from a saved model
// bundle is byte-identical to the one searched from the fresh fits the
// bundle was written from, and the second run reports that calibration
// and profiling were skipped.
func TestWarmStartFromSavedModels(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "resnet50.models.json")
	cold := filepath.Join(dir, "cold.strategy.json")
	warm := filepath.Join(dir, "warm.strategy.json")
	search := []string{"-model", "resnet50", "-pop", "16", "-gens", "8", "-no-measure"}

	var stdout, stderr bytes.Buffer
	if err := run(append(search, "-save-models", bundle, "-save-strategy", cold), &stdout, &stderr); err != nil {
		t.Fatalf("cold run: %v\n%s", err, stderr.String())
	}
	stdout.Reset()
	if err := run(append(search, "-load-models", bundle, "-save-strategy", warm), &stdout, &stderr); err != nil {
		t.Fatalf("warm run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "calibration and profiling skipped") {
		t.Errorf("warm run did not load the bundle:\n%s", stdout.String())
	}
	want, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("strategy from the bundle differs from the cold search's:\n got %s\nwant %s", got, want)
	}
}

// TestBundleForAnotherModelRejected: a bundle fitted on one workload
// cannot serve another.
func TestBundleForAnotherModelRejected(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "bert.models.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-model", "bert", "-pop", "16", "-gens", "8", "-no-measure", "-save-models", bundle}, &stdout, &stderr); err != nil {
		t.Fatalf("bert run: %v\n%s", err, stderr.String())
	}
	err := run([]string{"-model", "resnet50", "-pop", "16", "-gens", "8", "-no-measure", "-load-models", bundle}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `bundle fitted on "BERT", not "Resnet50"`) {
		t.Errorf("resnet50 from a bert bundle: err = %v, want the name-mismatch error", err)
	}
}
