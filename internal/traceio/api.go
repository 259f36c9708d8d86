package traceio

// This file defines the wire contract of the dvfsd strategy service
// (internal/server): request/response schemas for the
// POST /v1/strategies and GET /v1/jobs/{id} endpoints, the canonical
// trace fingerprint, and the strategy-cache key. It lives in traceio —
// not in the server — so cmd/dvfsctl and other clients can share the
// exact types and key derivation without importing the daemon.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"npudvfs/internal/op"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// IsTerminal reports whether a job state is final: a terminal job will
// never change state again, so pollers can stop and retention policies
// may evict it.
func IsTerminal(state string) bool {
	switch state {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// MaxJobWait caps the wait parameter of GET /v1/jobs/{id}?wait=: the
// server answers a longer wait once MaxJobWait has passed, and
// client.Wait never asks for more. It stays below the 30 s timeout of
// the client a cluster node forwards a poll with, so a forwarded wait
// is answered before that hop gives up.
const MaxJobWait = 20 * time.Second

// ErrUnknownWorkload marks a request naming a workload absent from the
// registry; the server maps it to 404 instead of the generic 400.
var ErrUnknownWorkload = errors.New("traceio: unknown workload")

// SearchSpec is the client-tunable part of a strategy search. The zero
// value means "server defaults"; Canonicalize resolves it to explicit
// values so equal effective configurations hash identically.
type SearchSpec struct {
	// TargetLoss is the allowed relative performance loss (paper
	// default 0.02).
	TargetLoss float64 `json:"target_loss,omitempty"`
	// FAIMillis is the frequency adjustment interval in milliseconds
	// (paper default 5).
	FAIMillis units.Millis `json:"fai_ms,omitempty"`
	// Pop and Gens size the genetic search (defaults 200/600, matching
	// cmd/dvfs-run).
	Pop  int   `json:"pop,omitempty"`
	Gens int   `json:"gens,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMillis bounds the search wall time; 0 uses the server
	// default. The timeout is intentionally NOT part of the cache key:
	// it cannot change a completed search's result, only whether it
	// completes.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// Bounds on the search size a client may request. The spec arrives
// from outside the process and sizes engine allocations directly — the
// GA holds 2·pop gene vectors and a gens+1 convergence series per
// island — so an unchecked "gens": 1e12 is a fatal out-of-memory for
// the daemon, not a failed job. The ceilings are 10× and 100× the
// paper's production 200×600 search, above every spec the repository's
// own tools send (cluster_smoke's deliberately slow job is 1000×30000).
// The floor is what the engine enforces under core.DefaultConfig:
// the population must exceed its elitism of 2.
const (
	minPop  = 3
	maxPop  = 2000
	maxGens = 60000
)

// maxTraceOps bounds the operators in an inline trace. Model building
// takes no context, so a job's timeout cannot stop it: a trace of a few
// hundred thousand operators — a 64 MiB body holds ~1.5 M minimal ones —
// would pin a worker through four profiling passes whatever the client
// asked. The ceiling is 7× GPT-3's 18,482, the largest registry trace.
const maxTraceOps = 1 << 17

// Canonicalize fills defaults and validates ranges. The defaults equal
// the cmd/dvfs-run flag defaults so a server-generated strategy is
// byte-identical to the batch path's for the same workload and seed.
func (s *SearchSpec) Canonicalize() error {
	//lint:allow floateq exact sentinel: 0 means "use the default", mirroring the flag default
	if s.TargetLoss == 0 {
		s.TargetLoss = 0.02
	}
	//lint:allow floateq exact sentinel: 0 means "use the default", mirroring the flag default
	if s.FAIMillis == 0 {
		s.FAIMillis = 5
	}
	if s.Pop == 0 {
		s.Pop = 200
	}
	if s.Gens == 0 {
		s.Gens = 600
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch {
	case s.TargetLoss < 0 || s.TargetLoss >= 1:
		return fmt.Errorf("traceio: target_loss %g outside [0, 1)", s.TargetLoss)
	case s.FAIMillis < 0:
		return fmt.Errorf("traceio: fai_ms %g negative", float64(s.FAIMillis))
	case s.Pop < minPop || s.Pop > maxPop:
		return fmt.Errorf("traceio: pop %d outside [%d, %d]", s.Pop, minPop, maxPop)
	case s.Gens < 1 || s.Gens > maxGens:
		return fmt.Errorf("traceio: gens %d outside [1, %d]", s.Gens, maxGens)
	case s.TimeoutMillis < 0:
		return fmt.Errorf("traceio: timeout_ms %d negative", s.TimeoutMillis)
	}
	return nil
}

// ConfigHash is a short stable digest of everything in the spec that
// can influence the generated strategy. Call after Canonicalize.
func (s SearchSpec) ConfigHash() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v1|loss=%g|fai=%g|pop=%d|gens=%d|seed=%d",
		s.TargetLoss, s.FAIMillis, s.Pop, s.Gens, s.Seed)))
	return hex.EncodeToString(h[:8])
}

// StrategyRequest is the body of POST /v1/strategies. Exactly one of
// Workload (a registry name) or Trace (an inline workload in the
// WriteWorkload wire format) must be set.
type StrategyRequest struct {
	Workload string          `json:"workload,omitempty"`
	Trace    json.RawMessage `json:"trace,omitempty"`
	Search   SearchSpec      `json:"search"`
}

// Resolve validates the request, canonicalizes the search spec and
// returns the workload model it refers to. An inline trace is read with
// ReadWorkload and must hold at least one operator and at most
// maxTraceOps: an empty one would take a queue slot and a store record
// only to fail model building. A trace that is JSON null is absent, as
// null is for every other optional field, and is cleared.
func (r *StrategyRequest) Resolve() (*workload.Model, error) {
	if err := r.Search.Canonicalize(); err != nil {
		return nil, err
	}
	if string(bytes.Trim(r.Trace, " \t\r\n")) == "null" {
		r.Trace = nil
	}
	switch {
	case r.Workload == "" && len(r.Trace) == 0:
		return nil, fmt.Errorf("traceio: request names no workload and carries no trace")
	case r.Workload != "" && len(r.Trace) != 0:
		return nil, fmt.Errorf("traceio: workload %q and inline trace are mutually exclusive", r.Workload)
	case r.Workload != "":
		m, err := workload.ByName(r.Workload)
		if err != nil {
			return nil, fmt.Errorf("%w: %q (available: %v)", ErrUnknownWorkload, r.Workload, workload.Names())
		}
		return m, nil
	default:
		m, err := ReadWorkload(bytes.NewReader(r.Trace))
		if err != nil {
			return nil, err
		}
		switch n := len(m.Trace); {
		case n == 0:
			return nil, fmt.Errorf("traceio: inline trace has no operators")
		case n > maxTraceOps:
			return nil, fmt.Errorf("traceio: inline trace has %d operators, above the limit of %d", n, maxTraceOps)
		}
		return m, nil
	}
}

// Fingerprint returns the canonical SHA-256 digest of a trace. Only
// the operator specs enter the hash — the workload's display name does
// not — so a named registry workload and the identical trace submitted
// inline share one cache entry.
//
// The hashed text is a "v1|<n> ops" header followed by one line per
// operator: the bytes json.Marshal produces for the spec's wire form
// (specJSON: fields in declaration order, zero-valued omitempty fields
// left out, floats and strings in encoding/json's formatting). Stored
// job records, cache keys and ring routing all carry this digest, so
// the text is frozen; appendSpecLine writes it directly rather than
// through json.Marshal's reflection walk, an operator equal to one
// earlier in the trace gets a copy of that one's line (lineTable), and
// the tests hold the result to the json.Marshal form.
//
// A spec with a NaN or infinite float has no JSON form; its line is
// empty, as it was when json.Marshal's error was dropped, so the
// digest stays defined but no longer distinguishes such specs from one
// another. None can arrive over the wire: JSON has no spelling for
// them and ReadWorkload validates what it decodes.
func Fingerprint(trace []op.Spec) string {
	h := sha256.New()
	// Lines are gathered and hashed a few KB at a time; the buffer is
	// reused for the whole trace.
	const flushAt = 4096
	buf := make([]byte, 0, flushAt+1024)
	buf = append(buf, "v1|"...)
	buf = strconv.AppendInt(buf, int64(len(trace)), 10)
	buf = append(buf, " ops\n"...)
	var seen lineTable
	for i := range trace {
		buf = seen.appendLine(buf, &trace[i])
		if len(buf) >= flushAt {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// lineTable remembers, for the length of one Fingerprint call, the
// canonical line of operators that call has already formatted. A trace
// repeats a few operators many times — 99 of GPT-3's 18,482 are
// distinct — and copying a line costs a tenth of formatting it. The
// table is open-addressed, holds at most lineTableCap lines in lineText
// bytes and stops taking new ones when either runs out, so a trace
// that never repeats pays a hash and a short probe per operator and
// nothing else. It lives in Fingerprint's frame: no state outlasts the
// call, and the hashed bytes are the ones appendSpecLine would write.
type lineTable struct {
	slots [2 * lineTableCap]lineSlot
	n     int
	text  [lineText]byte
	used  int
}

const (
	lineTableCap = 256
	lineText     = 32 << 10
)

// lineSlot is one remembered line: the operator it was formatted from
// (an element of the trace being fingerprinted), that operator's hash
// and the line's place in lineTable.text. An empty slot has a nil spec.
type lineSlot struct {
	spec     *op.Spec
	hash     uint64
	off, end int32
}

// appendLine appends the canonical line of s: a copy of the line
// remembered for an operator equal to s in every field if there is
// one, else what appendSpecLine writes, which it then remembers if
// there is room. Equality is op.Spec's ==, so a spec with a NaN never
// matches (its line is the empty one either way) and +0 matches -0
// (both are left out of the line). The empty line of a non-finite spec
// is not worth a slot. At most half the slots are ever taken, so the
// probe ends.
func (t *lineTable) appendLine(buf []byte, s *op.Spec) []byte {
	hash := s.Hash()
	i := hash % uint64(len(t.slots))
	for ; t.slots[i].spec != nil; i = (i + 1) % uint64(len(t.slots)) {
		if slot := &t.slots[i]; slot.hash == hash && *slot.spec == *s {
			return append(buf, t.text[slot.off:slot.end]...)
		}
	}
	start := len(buf)
	buf = appendSpecLine(buf, s)
	line := buf[start:]
	if end := t.used + len(line); t.n < lineTableCap && end <= len(t.text) && len(line) > 1 {
		copy(t.text[t.used:], line)
		t.slots[i] = lineSlot{spec: s, hash: hash, off: int32(t.used), end: int32(end)}
		t.used = end
		t.n++
	}
	return buf
}

// appendSpecLine appends json.Marshal(specToJSON(s)) and a newline.
func appendSpecLine(buf []byte, s *op.Spec) []byte {
	floats := [...]float64{s.LoadBytes, s.StoreBytes, s.CoreCycles, s.L2Hit, s.PrePostTime, s.FixedTime}
	for _, f := range floats {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(buf, '\n')
		}
	}
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, s.Name)
	if s.Shape != "" {
		buf = append(buf, `,"shape":`...)
		buf = appendJSONString(buf, s.Shape)
	}
	// The enum names are plain ASCII; an out-of-range value has no
	// name and encodes as "".
	buf = append(buf, `,"class":"`...)
	buf = append(buf, classNames[s.Class]...)
	buf = append(buf, '"')
	compute := s.Class == op.Compute
	if name := scenarioNames[s.Scenario]; compute && name != "" {
		buf = append(buf, `,"scenario":"`...)
		buf = append(buf, name...)
		buf = append(buf, '"')
	}
	if s.Blocks != 0 {
		buf = append(buf, `,"blocks":`...)
		buf = strconv.AppendInt(buf, int64(s.Blocks), 10)
	}
	buf = appendJSONFloat(buf, `,"load_bytes":`, s.LoadBytes)
	buf = appendJSONFloat(buf, `,"store_bytes":`, s.StoreBytes)
	buf = appendJSONFloat(buf, `,"core_cycles":`, s.CoreCycles)
	if name := pipeNames[s.CorePipe]; compute && name != "" {
		buf = append(buf, `,"core_pipe":"`...)
		buf = append(buf, name...)
		buf = append(buf, '"')
	}
	buf = appendJSONFloat(buf, `,"l2_hit":`, s.L2Hit)
	buf = appendJSONFloat(buf, `,"prepost_us":`, s.PrePostTime)
	buf = appendJSONFloat(buf, `,"fixed_us":`, s.FixedTime)
	return append(buf, '}', '\n')
}

// appendJSONFloat appends an omitempty float64 field the way
// encoding/json does: nothing for ±0, otherwise the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with
// a two-digit negative exponent's leading zero dropped (1e-07 → 1e-7).
// f must be finite.
func appendJSONFloat(buf []byte, field string, f float64) []byte {
	abs := math.Abs(f)
	if !(abs > 0) {
		return buf
	}
	buf = append(buf, field...)
	if abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(buf, f, 'f', -1, 64)
	}
	buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
	if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// appendJSONString appends s as json.Marshal quotes it. Printable
// ASCII without the characters json.Marshal escapes (quote, backslash
// and, for HTML safety, <, > and &) is copied as is; anything else —
// control bytes, non-ASCII, invalid UTF-8 — is left to json.Marshal.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// CacheKey combines the trace fingerprint with the canonical search
// configuration: two requests collide exactly when the deterministic
// search would redo identical work.
func CacheKey(fingerprint string, s SearchSpec) string {
	return fingerprint + ":" + s.ConfigHash()
}

// Key resolves the request and returns its strategy key — the cache
// key on the server and the consistent-hash routing key in a cluster.
// Ring-aware clients derive it locally to pick the owning node before
// submitting.
func (r *StrategyRequest) Key() (string, error) {
	m, err := r.Resolve()
	if err != nil {
		return "", err
	}
	return CacheKey(Fingerprint(m.Trace), r.Search), nil
}

// PredictedDeltas reports the model-predicted effect of a strategy
// against the fixed-maximum-frequency baseline. These come from the
// same evaluator the GA scored with (Sect. 6.3), not from measured
// execution.
type PredictedDeltas struct {
	BaselineTimeMicros units.Micros `json:"baseline_time_us"`
	TimeMicros         units.Micros `json:"time_us"`
	BaselineSoCWatts   units.Watt   `json:"baseline_soc_w"`
	SoCWatts           units.Watt   `json:"soc_w"`
	BaselineCoreWatts  units.Watt   `json:"baseline_core_w"`
	CoreWatts          units.Watt   `json:"core_w"`
	// Derived percentages (positive loss = slower, positive saving =
	// less power).
	PerfLossPct   float64 `json:"perf_loss_pct"`
	SoCSavingPct  float64 `json:"soc_saving_pct"`
	CoreSavingPct float64 `json:"core_saving_pct"`
}

// StrategyResponse is the payload of a completed job.
type StrategyResponse struct {
	Workload    string `json:"workload"`
	Fingerprint string `json:"fingerprint"`
	// Strategy is the generated policy in the WriteStrategy wire
	// format, ready for traceio.ReadStrategy or dvfs-run
	// -load-strategy.
	Strategy json.RawMessage `json:"strategy"`
	// Search provenance: the canonical spec the strategy was generated
	// under, and the GA's work/convergence summary.
	Search      SearchSpec `json:"search"`
	Stages      int        `json:"stages"`
	Switches    int        `json:"switches"`
	Evaluations int        `json:"evaluations"`
	BestScore   float64    `json:"best_score"`

	Predicted PredictedDeltas `json:"predicted"`
}

// JobStatus is the body of GET /v1/jobs/{id} and of the 202 response
// to POST /v1/strategies.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Workload string `json:"workload"`
	// Cached marks jobs answered from the strategy cache without a
	// search.
	Cached bool `json:"cached"`
	// Error is set for failed and cancelled jobs.
	Error string `json:"error,omitempty"`
	// QueueMillis and SearchMillis are per-stage latencies (0 until
	// the stage completes).
	QueueMillis  units.Millis `json:"queue_ms"`
	SearchMillis units.Millis `json:"search_ms"`
	// Result is set once State is done.
	Result *StrategyResponse `json:"result,omitempty"`
}

// ClusterNode is one ring member as reported by GET /v1/cluster.
type ClusterNode struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Self marks the node answering the request.
	Self bool `json:"self,omitempty"`
}

// ClusterStatus is the body of GET /v1/cluster: the answering node's
// identity, its job-store backend, and its view of the ring. A
// single-node daemon reports an empty node ID and no ring.
type ClusterStatus struct {
	Node   string        `json:"node"`
	Store  string        `json:"store"`
	VNodes int           `json:"vnodes,omitempty"`
	Nodes  []ClusterNode `json:"nodes,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}
