package traceio

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/npu"
	"npudvfs/internal/profiler"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

func sampleProfile(t *testing.T) *profiler.Profile {
	t.Helper()
	p := profiler.NewNoiseless(npu.Default())
	prof, err := p.Run(workload.ResNet50().Trace[:50], 1800)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestChromeTraceValidJSON(t *testing.T) {
	prof := sampleProfile(t)
	start20 := 0.0
	for _, d := range prof.DurMicros[:20] {
		start20 += d
	}
	strat := &core.Strategy{
		BaselineMHz: 1800,
		Points: []core.FreqPoint{
			{OpIndex: 0, FreqMHz: 1800},
			{OpIndex: 20, TimeMicros: units.Micros(start20), FreqMHz: 1200},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, prof, strat); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(events) != prof.Len()+len(strat.Points) {
		t.Fatalf("got %d events, want %d", len(events), prof.Len()+len(strat.Points))
	}
	// Complete events must carry ph=X with non-negative ts/dur.
	complete, instants := 0, 0
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["ts"].(float64) < 0 {
				t.Error("negative timestamp")
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if complete != prof.Len() || instants != len(strat.Points) {
		t.Errorf("event mix %d/%d, want %d/%d", complete, instants, prof.Len(), len(strat.Points))
	}
}

func TestChromeTraceWithoutStrategy(t *testing.T) {
	prof := sampleProfile(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, prof, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != prof.Len() {
		t.Errorf("got %d events, want %d", len(events), prof.Len())
	}
}

func TestChromeTraceRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil); err == nil {
		t.Error("nil profile: want error")
	}
	if err := WriteChromeTrace(&buf, &profiler.Profile{}, nil); err == nil {
		t.Error("empty profile: want error")
	}
}

func TestSaveChromeTrace(t *testing.T) {
	prof := sampleProfile(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := SaveChromeTrace(path, prof, nil); err != nil {
		t.Fatal(err)
	}
}
