package traceio

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"npudvfs/internal/op"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// FuzzReadStrategy ensures the strategy parser never panics and that
// anything it accepts round-trips stably.
func FuzzReadStrategy(f *testing.F) {
	f.Add(`{"baseline_mhz":1800,"points":[{"op_index":0,"time_us":0,"freq_mhz":1800}]}`)
	f.Add(`{"baseline_mhz":1800,"points":[]}`)
	f.Add(`{}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"baseline_mhz":-1}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadStrategy(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStrategy(&buf, s); err != nil {
			t.Fatalf("accepted strategy failed to serialize: %v", err)
		}
		s2, err := ReadStrategy(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted strategy failed: %v", err)
		}
		if s2.BaselineMHz != s.BaselineMHz || len(s2.Points) != len(s.Points) {
			t.Fatal("round trip changed the strategy")
		}
	})
}

// FuzzSearchSpecHash ensures the search-spec cache key is stable: for
// any spec the canonicalizer accepts, ConfigHash is a fixed-width hex
// digest, canonicalization is idempotent (re-canonicalizing changes
// neither the spec nor the hash), and the timeout — deliberately
// excluded from the key, since it cannot change a completed search's
// result — never perturbs it.
func FuzzSearchSpecHash(f *testing.F) {
	f.Add(0.0, 0.0, 0, 0, int64(0), 0)
	f.Add(0.02, 5.0, 200, 600, int64(1), 30000)
	f.Add(0.1, 1.0, 8, 40, int64(9), 0)
	f.Add(-0.5, 2.0, 10, 10, int64(3), 100)
	f.Add(0.999, 1e6, 1, 1, int64(-7), -1)
	f.Fuzz(func(t *testing.T, loss, fai float64, pop, gens int, seed int64, timeout int) {
		spec := SearchSpec{
			TargetLoss:    loss,
			FAIMillis:     units.Millis(fai),
			Pop:           pop,
			Gens:          gens,
			Seed:          seed,
			TimeoutMillis: timeout,
		}
		if err := spec.Canonicalize(); err != nil {
			return
		}
		h := spec.ConfigHash()
		if len(h) != 16 {
			t.Fatalf("ConfigHash %q is not 16 hex chars", h)
		}
		again := spec
		if err := again.Canonicalize(); err != nil {
			t.Fatalf("re-canonicalizing an accepted spec failed: %v", err)
		}
		if again != spec {
			t.Fatalf("Canonicalize is not idempotent: %+v != %+v", again, spec)
		}
		if again.ConfigHash() != h {
			t.Fatalf("hash changed across re-canonicalization: %s != %s", again.ConfigHash(), h)
		}
		retimed := spec
		retimed.TimeoutMillis = spec.TimeoutMillis + 1
		if retimed.ConfigHash() != h {
			t.Fatal("TimeoutMillis leaked into ConfigHash; the timeout must not invalidate cached strategies")
		}
	})
}

// FuzzReadWorkload ensures the trace parser never panics, validates
// everything it accepts, and holds the fast decoder to the encoding/json
// reference: whatever the fast decoder takes, the reference takes too
// and decodes to the same model, floats compared by their bits.
func FuzzReadWorkload(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, workload.MicroOp(workload.TanhOp(), 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	// A registry trace as written and as a server receives it, cut to
	// its first operators: a whole one (82 KB at the smallest) leaves
	// the fuzzer minimizing more than mutating.
	head := workload.ResNet50()
	head.Trace = head.Trace[:12]
	buf.Reset()
	if err := WriteWorkload(&buf, head); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.String())
	f.Add(`{"name":"x","trace":[]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]}`)
	f.Add(`{"trace":[{"name":"a","shape":"1x8","class":"compute","scenario":"pingpong-dep","blocks":2,"load_bytes":1e3,` +
		`"store_bytes":0.5,"core_cycles":4E+2,"core_pipe":"cube","l2_hit":-0,"prepost_us":1.25e-7,"fixed_us":0}],"name":"y"}`)
	f.Add(`{"name":"x","trace":[{"name":"Mat\u004dul","class":"idle","fixed_us":3}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","shape":"1×8","class":"idle","fixed_us":3}]}`)
	f.Add(`{"Name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]}`)
	f.Add(`{"name":null,"trace":[{"name":"a","shape":null,"class":"idle","fixed_us":null}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","name":"b","class":"idle","fixed_us":3}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3,"colour":"red"}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":1e400}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":-0}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"aicpu","blocks":1.0,"fixed_us":3}]}`)
	f.Add(`{"name":"x","trace":[{"name":"a","class":"idle","fixed_us":3}]} {"name":"y"}`)
	f.Add(`garbage`)
	f.Fuzz(func(t *testing.T, in string) {
		if fast, ok := decodeWorkloadFast([]byte(in)); ok {
			ref, err := decodeWorkloadReference([]byte(in))
			if err != nil {
				t.Fatalf("the fast decoder took what the reference rejects: %v", err)
			}
			if diff := sameModel(fast, ref); diff != "" {
				t.Fatalf("fast and reference decoders differ: %s", diff)
			}
		}
		m, err := ReadWorkload(strings.NewReader(in))
		if err != nil {
			return
		}
		// Anything accepted must be a valid workload.
		if err := m.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid workload: %v", err)
		}
	})
}

// FuzzFingerprint holds the append-style encoder to the json.Marshal
// form (referenceFingerprint) for arbitrary specs: raw-bit floats,
// arbitrary bytes in the strings, arbitrary enum values — alone and
// among the repeats and one-field twins of reuseTrace, where a line
// Fingerprint remembered could be reused for the wrong operator.
func FuzzFingerprint(f *testing.F) {
	f.Add("MatMul", "1x512", uint8(0), uint8(2), uint8(0), 8, uint64(0x40c3880000000000), uint64(0), 1e-7, 1e21, 0.5, 0.0)
	f.Add("AllReduce", "", uint8(2), uint8(0), uint8(0), 0, uint64(0), uint64(1)<<63, 0.0, 0.0, 0.0, 1234.5)
	f.Add("a<b>&\"\\", "é\xff ", uint8(9), uint8(9), uint8(9), -1, uint64(0x7ff8000000000001), uint64(1), -1e-9, 9.999999999999999e20, 1e-6, -0.0)
	f.Fuzz(func(t *testing.T, name, shape string, class, scenario, pipe uint8, blocks int,
		loadBits, storeBits uint64, cycles, l2, prepost, fixed float64) {
		s := op.Spec{
			Name: name, Shape: shape,
			Class: op.Class(class), Scenario: op.Scenario(scenario), CorePipe: op.Pipe(pipe),
			Blocks:    blocks,
			LoadBytes: math.Float64frombits(loadBits), StoreBytes: math.Float64frombits(storeBits),
			CoreCycles: cycles, L2Hit: l2, PrePostTime: prepost, FixedTime: fixed,
		}
		checkFingerprint(t, "fuzzed spec", []op.Spec{s, {Name: "next"}})
		checkFingerprint(t, "fuzzed spec and twins", reuseTrace(s))
	})
}
