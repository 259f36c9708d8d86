package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"npudvfs/internal/core"
	"npudvfs/internal/workload"
)

func TestWorkloadRoundTrip(t *testing.T) {
	orig := workload.BERT()
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name {
		t.Errorf("name = %q, want %q", back.Name, orig.Name)
	}
	if len(back.Trace) != len(orig.Trace) {
		t.Fatalf("trace length %d, want %d", len(back.Trace), len(orig.Trace))
	}
	for i := range orig.Trace {
		if back.Trace[i] != orig.Trace[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, back.Trace[i], orig.Trace[i])
		}
	}
}

func TestWorkloadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	orig := workload.ResNet50()
	if err := SaveWorkload(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ops() != orig.Ops() {
		t.Errorf("ops = %d, want %d", back.Ops(), orig.Ops())
	}
}

func TestWorkloadHumanReadableEnums(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, workload.MicroOp(workload.SoftmaxOp(), 1)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"class": "compute"`, `"scenario": "pingpongfree-dep"`, `"core_pipe": "vector"`} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized trace missing %s:\n%s", want, out)
		}
	}
}

func TestReadWorkloadRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","trace":[{"name":"a","class":"nosuch"}]}`,
		`{"name":"x","trace":[{"name":"a","class":"compute","scenario":"bogus","core_pipe":"cube","blocks":1,"core_cycles":5}]}`,
		`{"name":"x","trace":[{"name":"a","class":"compute","scenario":"pingpong-dep","core_pipe":"mte2","blocks":1,"core_cycles":5}]}`,
		// Valid JSON but invalid spec (no work).
		`{"name":"x","trace":[{"name":"a","class":"compute","scenario":"pingpong-dep","core_pipe":"cube","blocks":1}]}`,
		// A valid trace with anything but whitespace after it: a
		// concatenated or appended-to file is not that trace.
		`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]}garbage`,
		`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]}]`,
		`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]} {"name":"y"}`,
		// The same outside the fast decoder's subset (an escaped name).
		`{"name":"\u0078","trace":[{"name":"a","class":"idle","fixed_us":3}]}garbage`,
	}
	for i, in := range cases {
		if _, err := ReadWorkload(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := ReadWorkload(strings.NewReader(" \t{\"name\":\"x\",\"trace\":[{\"name\":\"a\",\"class\":\"idle\",\"fixed_us\":3}]}\r\n ")); err != nil {
		t.Errorf("whitespace around the value: %v", err)
	}
}

// registryBodies renders every registry trace as WriteWorkload writes
// it and compacted, as a server receives it inside a request.
func registryBodies(t *testing.T) map[string][]byte {
	t.Helper()
	bodies := make(map[string][]byte)
	for _, name := range workload.Names() {
		m, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var indented, compact bytes.Buffer
		if err := WriteWorkload(&indented, m); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		bodies[name+"/indented"] = indented.Bytes()
		bodies[name+"/compact"] = compact.Bytes()
	}
	return bodies
}

// sameModel reports how two decoded models differ, comparing floats by
// their bits (so -0 and 0 differ), or "" if they do not.
func sameModel(a, b *workload.Model) string {
	switch {
	case a.Name != b.Name:
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	case len(a.Trace) != len(b.Trace):
		return fmt.Sprintf("%d vs %d operators", len(a.Trace), len(b.Trace))
	case (a.Trace == nil) != (b.Trace == nil):
		return "nil trace vs empty trace"
	}
	for i := range a.Trace {
		x, y := &a.Trace[i], &b.Trace[i]
		xf := [...]float64{x.LoadBytes, x.StoreBytes, x.CoreCycles, x.L2Hit, x.PrePostTime, x.FixedTime}
		yf := [...]float64{y.LoadBytes, y.StoreBytes, y.CoreCycles, y.L2Hit, y.PrePostTime, y.FixedTime}
		for k := range xf {
			if math.Float64bits(xf[k]) != math.Float64bits(yf[k]) {
				return fmt.Sprintf("entry %d: float field %d %v vs %v", i, k, xf[k], yf[k])
			}
		}
		if x.Name != y.Name || x.Shape != y.Shape || x.Class != y.Class || x.Scenario != y.Scenario ||
			x.Blocks != y.Blocks || x.CorePipe != y.CorePipe {
			return fmt.Sprintf("entry %d: %+v vs %+v", i, *x, *y)
		}
	}
	return ""
}

// TestReadWorkloadFastMatchesReference: every registry trace, indented
// and compacted, is taken by the fast decoder — a decoder that always
// declined would fail here — and decodes to the reference's model and
// the registry's, bit for bit. Bodies just outside the subset are
// declined and still decode, by the reference, to the same model.
func TestReadWorkloadFastMatchesReference(t *testing.T) {
	bodies := registryBodies(t)
	if len(bodies) != 20 {
		t.Fatalf("%d registry bodies, want ten traces in two forms", len(bodies))
	}
	for key, body := range bodies {
		fast, ok := decodeWorkloadFast(body)
		if !ok {
			t.Errorf("%s: the fast decoder declined it", key)
			continue
		}
		ref, err := decodeWorkloadReference(body)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if diff := sameModel(fast, ref); diff != "" {
			t.Errorf("%s: fast and reference differ: %s", key, diff)
		}
		orig, err := workload.ByName(strings.SplitN(key, "/", 2)[0])
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameModel(fast, orig); diff != "" {
			t.Errorf("%s: decoded trace differs from the registry's: %s", key, diff)
		}
	}

	// Bodies just outside the subset, made from the compacted resnet50
	// body by one replacement. same marks those that still decode to
	// the registry trace.
	orig, err := workload.ByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	compact := string(bodies["resnet50/compact"])
	for _, tc := range []struct {
		name, old, new string
		same, wantErr  bool
	}{
		{name: "escaped workload name", old: `{"name":"Resnet50"`, new: `{"name":"\u0052esnet50"`, same: true},
		{name: "escaped operator name", old: `[{"name":"`, new: `[{"name":"\u0041`},
		{name: "non-ASCII operator name", old: `[{"name":"`, new: `[{"name":"é`},
		{name: "upper-case key", old: `"trace":`, new: `"TRACE":`, same: true},
		{name: "unknown key", old: `[{`, new: `[{"colour":"red",`, same: true},
		{name: "null field", old: `[{`, new: `[{"l2_hit":null,`, same: true},
		{name: "duplicate key", old: `[{`, new: `[{"name":"dup",`, same: true},
		{name: "exponent blocks", old: `[{`, new: `[{"blocks":1e0,`, wantErr: true},
		{name: "out-of-range float", old: `[{`, new: `[{"fixed_us":1e400,`, wantErr: true},
		{name: "trailing bytes", old: `]}`, new: `]}x`, wantErr: true},
	} {
		body := []byte(strings.Replace(compact, tc.old, tc.new, 1))
		if string(body) == compact {
			t.Fatalf("%s: %q is not in the body", tc.name, tc.old)
		}
		if _, ok := decodeWorkloadFast(body); ok {
			t.Errorf("%s: the fast decoder took a body outside its subset", tc.name)
		}
		m, err := ReadWorkload(bytes.NewReader(body))
		switch {
		case tc.wantErr:
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.same:
			if diff := sameModel(m, orig); diff != "" {
				t.Errorf("%s: differs from the registry trace: %s", tc.name, diff)
			}
		}
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	orig := &core.Strategy{
		BaselineMHz: 1800,
		Points: []core.FreqPoint{
			{OpIndex: 0, TimeMicros: 0, FreqMHz: 1800},
			{OpIndex: 42, TimeMicros: 1234.5, FreqMHz: 1200},
			{OpIndex: 90, TimeMicros: 8000, FreqMHz: 1700},
		},
	}
	path := filepath.Join(t.TempDir(), "strategy.json")
	if err := SaveStrategy(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStrategy(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.BaselineMHz != orig.BaselineMHz || len(back.Points) != len(orig.Points) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range orig.Points {
		if back.Points[i] != orig.Points[i] {
			t.Errorf("point %d = %+v, want %+v", i, back.Points[i], orig.Points[i])
		}
	}
	if back.Switches() != orig.Switches() {
		t.Errorf("switches = %d, want %d", back.Switches(), orig.Switches())
	}
}

func TestReadStrategyValidates(t *testing.T) {
	cases := []string{
		`{"baseline_mhz":0,"points":[]}`,
		`{"baseline_mhz":1800,"points":[{"op_index":0,"freq_mhz":-5}]}`,
		`{"baseline_mhz":1800,"points":[{"op_index":9,"freq_mhz":1200},{"op_index":3,"freq_mhz":1500}]}`,
		`{"baseline_mhz":1800,"points":[{"op_index":0,"freq_mhz":1200,"uncore_scale":1.4}]}`,
		// A negative operator index on the first point, a negative
		// switch time, and a key the wire format does not define (a
		// per-point uncore scale from a two-domain file).
		`{"baseline_mhz":1800,"points":[{"op_index":-5,"freq_mhz":1200}]}`,
		`{"baseline_mhz":1800,"points":[{"op_index":0,"time_us":-3,"freq_mhz":1200}]}`,
		`{"baseline_mhz":1800,"points":[{"op_index":0,"freq_mhz":1200,"uncore_scale":0.9}]}`,
		`not json`,
		// A valid strategy with anything but whitespace after it.
		`{"baseline_mhz":1800,"points":[]}xx`,
		`{"baseline_mhz":1800,"points":[]} {"baseline_mhz":900,"points":[]}`,
	}
	for i, in := range cases {
		if _, err := ReadStrategy(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestNilInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, nil); err == nil {
		t.Error("nil workload: want error")
	}
	if err := WriteStrategy(&buf, nil); err == nil {
		t.Error("nil strategy: want error")
	}
}

// TestReadWorkloadAllocsBounded holds decoding GPT-3's inline trace,
// compacted as it arrives inside a request's JSON, to at most 256
// allocations: the fast decoder builds the operators in one pass and
// allocates each distinct name or shape once (92,148 allocations when
// encoding/json's reflection walk decoded every operator).
func TestReadWorkloadAllocsBounded(t *testing.T) {
	body := registryBodies(t)["gpt3/compact"]
	var err error
	n := testing.AllocsPerRun(1, func() { _, err = ReadWorkload(bytes.NewReader(body)) })
	if err != nil {
		t.Fatal(err)
	}
	if n > 256 {
		t.Errorf("ReadWorkload of GPT-3 made %v allocations, want <= 256 (one-pass trace decoding)", n)
	}
}
