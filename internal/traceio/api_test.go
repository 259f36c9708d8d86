package traceio

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/workload"
)

func TestFingerprintCanonical(t *testing.T) {
	m := workload.ResNet50()
	fp := Fingerprint(m.Trace)
	if len(fp) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(fp))
	}
	if fp != Fingerprint(m.Trace) {
		t.Error("fingerprint not deterministic")
	}
	// The display name must not enter the hash: an inline submission of
	// a registry workload has to share its cache entry.
	renamed := &workload.Model{Name: "something-else", Trace: m.Trace}
	if Fingerprint(renamed.Trace) != fp {
		t.Error("fingerprint depends on workload name")
	}
	other := workload.BERT()
	if Fingerprint(other.Trace) == fp {
		t.Error("distinct traces share a fingerprint")
	}
	// A trace surviving a wire round-trip must keep its fingerprint.
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(back.Trace) != fp {
		t.Error("fingerprint changed across JSON round-trip")
	}
}

func TestSearchSpecCanonicalize(t *testing.T) {
	var s SearchSpec
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	want := SearchSpec{TargetLoss: 0.02, FAIMillis: 5, Pop: 200, Gens: 600, Seed: 1}
	if s != want {
		t.Errorf("zero spec canonicalized to %+v, want %+v", s, want)
	}
	// Explicit defaults and the zero value hash identically.
	if s.ConfigHash() != want.ConfigHash() {
		t.Error("canonical equal specs hash differently")
	}
	seeded := want
	seeded.Seed = 7
	if seeded.ConfigHash() == want.ConfigHash() {
		t.Error("seed change did not change the config hash")
	}
	// Timeout must not enter the hash (it cannot change the result).
	timed := want
	timed.TimeoutMillis = 12345
	if timed.ConfigHash() != want.ConfigHash() {
		t.Error("timeout_ms leaked into the config hash")
	}
	if CacheKey("abc", seeded) == CacheKey("abc", want) {
		t.Error("cache keys collide across different seeds")
	}
	if CacheKey("abc", want) == CacheKey("def", want) {
		t.Error("cache keys collide across different fingerprints")
	}

	for _, bad := range []SearchSpec{
		{TargetLoss: -0.1},
		{TargetLoss: 1.5},
		{Pop: 1},
		{Pop: minPop - 1}, // answered 202, then failed in ga.New before the floor matched the engine's
		{Pop: maxPop + 1},
		{Gens: -1},
		{Gens: maxGens + 1},
		{Gens: 1e12}, // sizes a per-island history slab: a daemon OOM, not a failed job
		{TimeoutMillis: -5},
	} {
		b := bad
		if err := b.Canonicalize(); err == nil {
			t.Errorf("spec %+v passed validation", bad)
		}
	}
	for _, good := range []SearchSpec{
		{Pop: minPop, Gens: 1},
		{Pop: maxPop, Gens: maxGens},
	} {
		g := good
		if err := g.Canonicalize(); err != nil {
			t.Errorf("spec %+v rejected: %v", good, err)
		}
	}
	// The floor is the engine's: the smallest population ga.New accepts
	// under the elitism the server searches with.
	cfg := core.DefaultConfig().GA
	if minPop != cfg.Elitism+1 {
		t.Errorf("minPop = %d, engine floor is elitism+1 = %d", minPop, cfg.Elitism+1)
	}
}

func TestStrategyRequestResolve(t *testing.T) {
	req := StrategyRequest{Workload: "resnet50"}
	m, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.EqualFold(m.Name, "resnet50") || len(m.Trace) == 0 {
		t.Fatalf("resolved %q with %d ops", m.Name, len(m.Trace))
	}

	unknown := StrategyRequest{Workload: "nonsense"}
	if _, err := unknown.Resolve(); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: got %v, want ErrUnknownWorkload", err)
	}

	var empty StrategyRequest
	if _, err := empty.Resolve(); err == nil || !strings.Contains(err.Error(), "no workload") {
		t.Errorf("empty request: got %v", err)
	}

	// Inline trace: serialize a registry workload and submit it raw.
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, workload.ResNet50()); err != nil {
		t.Fatal(err)
	}
	inline := StrategyRequest{Trace: json.RawMessage(buf.Bytes())}
	mi, err := inline.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(mi.Trace) != Fingerprint(m.Trace) {
		t.Error("inline submission fingerprints differently from the registry workload")
	}

	both := StrategyRequest{Workload: "resnet50", Trace: json.RawMessage(buf.Bytes())}
	if _, err := both.Resolve(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("workload+trace: got %v", err)
	}

	garbage := StrategyRequest{Trace: json.RawMessage(`{"trace": [{"class": "zebra"}]}`)}
	if _, err := garbage.Resolve(); err == nil {
		t.Error("garbage trace resolved without error")
	}
}
