package jobstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

// inlineTrace is one registry trace as a request carries it: the
// indented WriteWorkload form a client may send, or that form compacted
// as the repository's own tools send it.
type inlineTrace struct {
	name    string
	raw     json.RawMessage
	compact bool
}

// registryTraces returns every registry workload's first ops operators
// (all of them when ops is 0), indented and compacted. The indented
// form is trimmed of its trailing newline: a RawMessage the decoder
// fills never carries the whitespace around the value.
func registryTraces(tb testing.TB, ops int) []inlineTrace {
	tb.Helper()
	var out []inlineTrace
	for _, name := range workload.Names() {
		m, err := workload.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		if ops > 0 {
			m = &workload.Model{Name: m.Name, Trace: m.Trace[:ops]}
		}
		var indented, compact bytes.Buffer
		if err := traceio.WriteWorkload(&indented, m); err != nil {
			tb.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			tb.Fatal(err)
		}
		out = append(out,
			inlineTrace{name + "/indented", bytes.TrimSpace(indented.Bytes()), false},
			inlineTrace{name + "/compact", compact.Bytes(), true})
	}
	return out
}

// Strings the encoder must escape the way json.Marshal does: quotes,
// backslashes, HTML-escapable and non-ASCII characters.
const (
	awkwardWorkload = "res\"net\\50 <&> – Ünïcode"
	awkwardError    = "search \"x\" failed: C:\\path <b>&amp;</b> \u2028 ✗"
)

// recordStates are the records a job passes through, each given the
// request it would carry (attached by the caller).
func recordStates() map[string]*Record {
	result := &traceio.StrategyResponse{
		Workload:    awkwardWorkload,
		Fingerprint: "f00d",
		Strategy:    json.RawMessage(`{"baseline_mhz":1800,"points":[{"op_index":0,"time_us":0,"freq_mhz":1800}]}`),
	}
	return map[string]*Record{
		"queued":  {ID: "n1-j00000001", State: traceio.JobQueued, Workload: awkwardWorkload, CacheKey: "abc:def", SavedUnixNano: 1},
		"running": {ID: "n1-j00000002", State: traceio.JobRunning, Workload: awkwardWorkload, CacheKey: "abc:def", QueueMillis: 12.5, SavedUnixNano: 2},
		"done":    {ID: "n1-j00000003", State: traceio.JobDone, Workload: awkwardWorkload, QueueMillis: 1, SearchMillis: 3.25, Result: result, SavedUnixNano: 3},
		"failed":  {ID: "n1-j00000004", State: traceio.JobFailed, Workload: awkwardWorkload, Error: awkwardError, SavedUnixNano: 4},
		"cached":  {ID: "n1-j00000005", State: traceio.JobDone, Workload: awkwardWorkload, Cached: true, Result: result},
	}
}

// marshalForm is a trace as json.Marshal writes a RawMessage: compacted,
// with <, >, & and U+2028/U+2029 escaped.
func marshalForm(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var compact, escaped bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		tb.Fatal(err)
	}
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes()
}

// checkEncoding holds encodeRecord(rec) to json.Marshal(rec): both
// decode to the same record once the trace is put in json.Marshal's
// form, the decoded trace is the request's bytes as they were, and
// when those bytes already are in json.Marshal's form the encodings
// are byte-identical.
func checkEncoding(tb testing.TB, rec *Record) {
	tb.Helper()
	got, err := encodeRecord(rec)
	if err != nil {
		tb.Fatalf("encodeRecord: %v", err)
	}
	want, err := json.Marshal(rec)
	if err != nil {
		tb.Fatalf("json.Marshal: %v", err)
	}
	var back, ref Record
	if err := json.Unmarshal(got, &back); err != nil {
		tb.Fatalf("encodeRecord wrote invalid JSON: %v", err)
	}
	if err := json.Unmarshal(want, &ref); err != nil {
		tb.Fatal(err)
	}
	var trace []byte
	if rec.Request != nil {
		trace = bytes.Trim(rec.Request.Trace, " \t\r\n")
	}
	if len(trace) > 0 {
		if !bytes.Equal(back.Request.Trace, trace) {
			tb.Fatalf("decoded trace differs from the request's bytes (%d vs %d bytes)", len(back.Request.Trace), len(trace))
		}
		canonical := marshalForm(tb, trace)
		if bytes.Equal(rec.Request.Trace, canonical) && !bytes.Equal(got, want) {
			tb.Fatalf("trace already in json.Marshal's form, but the encodings differ:\ngot  %.300s\nwant %.300s", got, want)
		}
		back.Request.Trace = canonical
	}
	if !reflect.DeepEqual(back, ref) {
		tb.Fatalf("decoded records differ:\nencodeRecord %+v\njson.Marshal %+v", back, ref)
	}
}

// TestEncodeRecordMatchesMarshal runs every registry trace, indented
// and compact, through every state of a record, with and without its
// request. A compact registry trace has nothing for json.Marshal to
// compact or escape, so checkEncoding holds those records to the bytes
// json.Marshal writes.
func TestEncodeRecordMatchesMarshal(t *testing.T) {
	for _, tr := range registryTraces(t, 0) {
		if tr.compact && !bytes.Equal(marshalForm(t, tr.raw), tr.raw) {
			t.Fatalf("%s: json.Marshal would rewrite the compact trace", tr.name)
		}
		for state, tmpl := range recordStates() {
			t.Run(tr.name+"/"+state, func(t *testing.T) {
				checkEncoding(t, tmpl)
				rec := tmpl.clone()
				rec.Request = &traceio.StrategyRequest{Trace: tr.raw, Search: traceio.SearchSpec{Pop: 16, Gens: 8, Seed: 3}}
				if err := rec.Request.Search.Canonicalize(); err != nil {
					t.Fatal(err)
				}
				checkEncoding(t, rec)
			})
		}
	}
	// A request that names its workload beside a trace never reaches a
	// store (Resolve refuses it), but its encoding is still the record's.
	rec := recordStates()["queued"]
	rec.Request = &traceio.StrategyRequest{Workload: awkwardWorkload, Trace: json.RawMessage(`{"name":"x","trace":[]}`)}
	checkEncoding(t, rec)
}

// FuzzEncodeRecord holds encodeRecord to json.Marshal for any trace
// that meets Store's precondition — a valid JSON value — whatever its
// whitespace, escapes or bytes. It is seeded with the head of every
// registry trace in both forms: a whole one leaves the fuzzer
// minimizing more than mutating.
func FuzzEncodeRecord(f *testing.F) {
	for _, tr := range registryTraces(f, 3) {
		f.Add([]byte(tr.raw), traceio.JobQueued, "", "")
	}
	f.Add([]byte(` {"name":"<&>","trace":[ ]} `), traceio.JobRunning, awkwardWorkload, "")
	f.Add([]byte(`"\u2028 ü \\ \""`), traceio.JobFailed, "", awkwardError)
	f.Add([]byte("[\"\u2028\", \"<&>\"]"), traceio.JobCancelled, "", "")
	f.Add([]byte(`[1e400, -0, null, true]`), traceio.JobDone, "x", "")
	f.Add([]byte("null"), traceio.JobQueued, "resnet50", "")
	f.Add([]byte(" {}"), "0", "0", "0")
	f.Fuzz(func(t *testing.T, trace []byte, state, name, errText string) {
		if !json.Valid(trace) {
			return // outside Store's precondition
		}
		checkEncoding(t, &Record{
			ID: "j00000001", State: state, Workload: name, Error: errText,
			Request: &traceio.StrategyRequest{Workload: name, Trace: trace},
		})
	})
}
