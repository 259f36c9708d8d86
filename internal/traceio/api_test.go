package traceio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/op"
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

// TestStrategyRequestResolveEmptyTrace: an inline trace with no
// operators, whether its list is empty or absent, is refused by
// Resolve and therefore by Key, rather than accepted only to fail
// model building with "core: empty profile".
func TestStrategyRequestResolveEmptyTrace(t *testing.T) {
	for _, raw := range []string{`{"name":"x","trace":[]}`, `{"name":"x"}`} {
		req := StrategyRequest{Trace: json.RawMessage(raw)}
		if _, err := req.Resolve(); err == nil || !strings.Contains(err.Error(), "no operators") {
			t.Errorf("trace %s: Resolve got %v, want the no-operators error", raw, err)
		}
		if key, err := req.Key(); err == nil {
			t.Errorf("trace %s: Key = %q, want an error", raw, key)
		}
	}
}

// TestStrategyRequestResolveNullTrace: "trace": null is an absent
// trace, as null is for every other optional field, so a request that
// also names a workload resolves it, and one that names nothing gets
// the no-workload error rather than a decode of "null". Resolve clears
// the trace so nothing downstream sees the four bytes.
func TestStrategyRequestResolveNullTrace(t *testing.T) {
	for _, body := range []string{
		`{"workload":"resnet50","trace":null,"search":{}}`,
		`{"trace": null , "workload": "resnet50"}`,
	} {
		var req StrategyRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		m, err := req.Resolve()
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if !strings.EqualFold(m.Name, "resnet50") || req.Trace != nil {
			t.Errorf("%s: resolved %q, trace left as %q", body, m.Name, req.Trace)
		}
	}
	for _, raw := range []string{"null", " \n\tnull\r\n"} {
		req := StrategyRequest{Trace: json.RawMessage(raw)}
		if _, err := req.Resolve(); err == nil || !strings.Contains(err.Error(), "names no workload") {
			t.Errorf("trace %q alone: got %v, want the no-workload error", raw, err)
		}
	}
	var bare StrategyRequest
	if err := json.Unmarshal([]byte(`{"trace":null,"search":{}}`), &bare); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Resolve(); err == nil || !strings.Contains(err.Error(), "names no workload") {
		t.Errorf(`{"trace":null}: got %v, want the no-workload error`, err)
	}
}

// referenceFingerprint is Fingerprint as it was first written — one
// json.Marshal of the wire form per operator, the error dropped — and
// the definition the append-style encoder must keep to, digest for
// digest.
func referenceFingerprint(trace []op.Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|%d ops\n", len(trace))
	for i := range trace {
		b, _ := json.Marshal(specToJSON(&trace[i]))
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkFingerprint compares the digest with the reference's and, on a
// mismatch, finds the first operator whose line differs.
func checkFingerprint(t *testing.T, label string, trace []op.Spec) {
	t.Helper()
	if got, want := Fingerprint(trace), referenceFingerprint(trace); got != want {
		for i := range trace {
			ref, _ := json.Marshal(specToJSON(&trace[i]))
			if line := appendSpecLine(nil, &trace[i]); string(line) != string(ref)+"\n" {
				t.Fatalf("%s: op %d encodes as %q, json.Marshal gives %q", label, i, line, ref)
			}
		}
		t.Fatalf("%s: fingerprint %s, reference %s (every line matches when formatted alone: header, flushing or line reuse differs)", label, got, want)
	}
}

// TestFingerprintPinnedRegistry holds the ten registry digests to the
// values the json.Marshal implementation produced (generated at commit
// ad34cb5): fs job stores, ring-aware clients and cached responses
// carry them.
func TestFingerprintPinnedRegistry(t *testing.T) {
	raw, err := os.ReadFile("testdata/registry_fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	if len(pinned) != len(names) {
		t.Errorf("%d pinned fingerprints for %d registry workloads", len(pinned), len(names))
	}
	for _, name := range names {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Fingerprint(m.Trace); got != pinned[name] {
			t.Errorf("%s: fingerprint %s, pinned %s", name, got, pinned[name])
		}
		checkFingerprint(t, name, m.Trace)
	}
}

// awkwardFloats are the values where encoding/json's float formatting
// changes form: both exponent cut-offs from either side, the
// two-digit-exponent clean-up, the zeros, the extremes.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6,
	1e-7, 1e-9, 1e-10, 1.5e-10, -3e-8, 1e-100, 5e-324, 2.2250738585072014e-308,
	1e21, 9.999999999999999e20, 1.0000000000000001e21, 1e22, -1e21, 1e100, math.MaxFloat64,
	123456789.125, 100, 1e20, 0.1 + 0.2, 4096, 1 << 53,
}

// awkwardStrings cover every class appendJSONString must hand to
// json.Marshal, next to ones it may copy.
var awkwardStrings = []string{
	"", "MatMul", "1x512x1024", "a b~c\x7f", `quo"te`, `back\slash`, "<tag>", "a&b", "tab\there", "nul\x00",
	"line\nbreak", "ünïcode", "日本語", "sep  ", "bad\xffutf8", "\xc3", "trail\xe2\x82",
}

func randomSpec(rng *rand.Rand) op.Spec {
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return awkwardFloats[rng.Intn(len(awkwardFloats))]
		case 1:
			// Any finite bit pattern.
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		case 2:
			// Straddle the exponent-form cut-offs.
			edge := []float64{1e-6, 1e21}[rng.Intn(2)]
			return edge * (1 + (rng.Float64()-0.5)*1e-3)
		}
		return rng.Float64() * 1e6
	}
	str := func() string {
		if rng.Intn(2) == 0 {
			return awkwardStrings[rng.Intn(len(awkwardStrings))]
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	return op.Spec{
		Name:  str(),
		Shape: str(),
		// One past each enum's last value as well: an unnamed value
		// must encode the way a map miss does.
		Class:       op.Class(rng.Intn(int(op.Idle) + 2)),
		Scenario:    op.Scenario(rng.Intn(int(op.PingPongDep) + 2)),
		CorePipe:    op.Pipe(rng.Intn(int(op.NumPipes) + 1)),
		Blocks:      rng.Intn(5) - 1,
		LoadBytes:   float(),
		StoreBytes:  float(),
		CoreCycles:  float(),
		L2Hit:       float(),
		PrePostTime: float(),
		FixedTime:   float(),
	}
}

// reuseTrace surrounds s with the operators a remembered line could be
// wrongly reused for: s again, s with its strings in other backing
// arrays, and, for each of op.Spec's twelve fields, a twin that differs
// from s in that field alone — each followed by s once more, so a twin
// that displaced s's line would show as well.
func reuseTrace(s op.Spec) []op.Spec {
	clone := s
	clone.Name, clone.Shape = strings.Clone(s.Name), strings.Clone(s.Shape)
	trace := []op.Spec{s, {Name: "next"}, s, clone}
	var twins [12]op.Spec
	for i := range twins {
		twins[i] = s
	}
	twins[0].Name += "'"
	twins[1].Shape += "'"
	twins[2].Class ^= 1
	twins[3].Scenario ^= 1
	twins[4].Blocks++
	twins[5].LoadBytes = otherFloat(s.LoadBytes)
	twins[6].StoreBytes = otherFloat(s.StoreBytes)
	twins[7].CoreCycles = otherFloat(s.CoreCycles)
	twins[8].CorePipe ^= 1
	twins[9].L2Hit = otherFloat(s.L2Hit)
	twins[10].PrePostTime = otherFloat(s.PrePostTime)
	twins[11].FixedTime = otherFloat(s.FixedTime)
	for _, twin := range twins {
		trace = append(trace, twin, s, twin)
	}
	return trace
}

// otherFloat returns a finite float that differs from f.
func otherFloat(f float64) float64 {
	if f == 1 {
		return 2
	}
	return 1
}

func TestFingerprintMatchesJSONMarshal(t *testing.T) {
	if n := reflect.TypeOf(op.Spec{}).NumField(); n != 12 {
		t.Fatalf("op.Spec has %d fields: reuseTrace needs a twin for each", n)
	}
	checkFingerprint(t, "empty trace", nil)
	// Every awkward value in every position once, deterministically.
	var trace []op.Spec
	for _, f := range awkwardFloats {
		trace = append(trace,
			op.Spec{Name: "f", LoadBytes: f, CoreCycles: -f, PrePostTime: f},
			op.Spec{Name: "g", Class: op.AICPU, StoreBytes: f, L2Hit: f, FixedTime: -f})
	}
	for _, s := range awkwardStrings {
		trace = append(trace, op.Spec{Name: s, Shape: "plain"}, op.Spec{Name: "plain", Shape: s})
	}
	for c := 0; c < 256; c++ {
		trace = append(trace, op.Spec{
			Name: string([]byte{'x', byte(c)}), Class: op.Class(c), Scenario: op.Scenario(c), CorePipe: op.Pipe(c),
		})
		trace = append(trace, op.Spec{Name: "enum", Scenario: op.Scenario(c), CorePipe: op.Pipe(c), Blocks: c - 3})
	}
	checkFingerprint(t, "awkward values", trace)

	// The same operators again: the second half meets the lines
	// Fingerprint remembered from the first — and, the trace holding
	// more distinct operators than lineTableCap, the ones it could not.
	if len(trace) <= lineTableCap {
		t.Fatalf("awkward trace has %d operators, want more than the %d a call remembers", len(trace), lineTableCap)
	}
	checkFingerprint(t, "awkward values, twice", append(trace[:len(trace):len(trace)], trace...))
	// Lines that fill the remembered text before the table has
	// lineTableCap of them.
	var long []op.Spec
	for i := 0; i*1000 < 2*lineText; i++ {
		long = append(long, op.Spec{Name: strings.Repeat("n", 1000), Blocks: i})
	}
	checkFingerprint(t, "long lines, twice", append(long, long...))

	for _, s := range []op.Spec{
		{},
		{Name: "MatMul", Shape: "2048x12288x12288", Scenario: op.PingPongIndep, Blocks: 8, LoadBytes: 44040192,
			StoreBytes: 6291456, CoreCycles: 73728, L2Hit: 0.35, PrePostTime: 2},
		{Name: "AllReduce", Class: op.Communication, FixedTime: 1200},
		{Name: "ones", Shape: "1", Blocks: 1, LoadBytes: 1, StoreBytes: 1, CoreCycles: 1, L2Hit: 1, PrePostTime: 1, FixedTime: 1},
	} {
		checkFingerprint(t, fmt.Sprintf("twins of %+v", s), reuseTrace(s))
	}
	// +0 == -0 under op.Spec's equality, and both are left out of the line.
	negZero := math.Copysign(0, -1)
	checkFingerprint(t, "signed zeros", []op.Spec{
		{Name: "z", LoadBytes: 0, StoreBytes: negZero, FixedTime: 3},
		{Name: "z", LoadBytes: negZero, StoreBytes: 0, FixedTime: 3},
		{Name: "z", LoadBytes: 0, StoreBytes: negZero, FixedTime: 3},
	})

	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		trace := make([]op.Spec, rng.Intn(200))
		for i := range trace {
			trace[i] = randomSpec(rng)
		}
		checkFingerprint(t, fmt.Sprintf("random round %d", round), trace)
		// The shape real traces have: many operators, few distinct.
		if len(trace) > 0 {
			repeats := make([]op.Spec, 2000)
			for i := range repeats {
				repeats[i] = trace[rng.Intn(len(trace))]
			}
			checkFingerprint(t, fmt.Sprintf("random round %d, repeating", round), repeats)
		}
	}
}

// TestFingerprintNonFinite pins the documented behaviour for specs
// JSON cannot express: the line is empty, whichever float is NaN or
// infinite and whatever the other fields hold.
func TestFingerprintNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 6; field++ {
			s := op.Spec{Name: "MatMul", Shape: "8x8", Blocks: 2, LoadBytes: 1, FixedTime: 3}
			*[]*float64{&s.LoadBytes, &s.StoreBytes, &s.CoreCycles, &s.L2Hit, &s.PrePostTime, &s.FixedTime}[field] = bad
			if line := appendSpecLine(nil, &s); string(line) != "\n" {
				t.Errorf("float %d = %g: line %q, want empty", field, bad, line)
			}
			trace := []op.Spec{{Name: "before"}, s, {Name: "after"}}
			checkFingerprint(t, fmt.Sprintf("float %d = %g", field, bad), trace)
			if Fingerprint(trace) != Fingerprint([]op.Spec{{Name: "before"}, {Name: "other", StoreBytes: bad}, {Name: "after"}}) {
				t.Errorf("float %d = %g: non-finite specs should hash alike", field, bad)
			}
			// Twice over, around a finite twin: a non-finite spec's line
			// is the empty one each time, never a remembered neighbour's.
			twin := s
			*[]*float64{&twin.LoadBytes, &twin.StoreBytes, &twin.CoreCycles, &twin.L2Hit, &twin.PrePostTime, &twin.FixedTime}[field] = 7
			checkFingerprint(t, fmt.Sprintf("float %d = %g, duplicated", field, bad), []op.Spec{twin, s, s, twin, s})
		}
	}
}

// TestFingerprintAllocsBounded holds the digest every submission pays,
// cache hits included, to at most 8 allocations on GPT-3's ~18,000
// operators: it is written into one reused buffer, not marshalled per
// operator (36,982 allocations when it was), and the lines it
// remembers within a call live in its frame.
func TestFingerprintAllocsBounded(t *testing.T) {
	m, err := workload.ByName("gpt3")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, func() { Fingerprint(m.Trace) }); n > 8 {
		t.Errorf("Fingerprint of GPT-3 made %v allocations, want <= 8 (one reused buffer)", n)
	}
}
