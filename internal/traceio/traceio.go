// Package traceio serializes workload traces and DVFS strategies as
// JSON, so profiling captures and generated policies can be stored,
// inspected and replayed across runs — the DVFS Executor of Sect. 7.1
// "reads the strategy generated in the DVFS Strategy Generate phase".
//
// Enumerations are encoded as strings for human readability and format
// stability.
//
// ReadWorkload decodes a trace in one of two ways, chosen by its bytes.
// The common case — everything WriteWorkload writes, compacted or not —
// takes a single forward pass that builds the operators directly
// (tracedecode.go). That pass accepts a subset of JSON: the keys "name"
// and "trace" and the twelve entry keys spelled exactly as specJSON
// tags them, each at most once per object, in any order, with any JSON
// whitespace; strings of printable ASCII without a backslash; numbers
// that parse into their field (float64 with strconv.ParseFloat, as
// encoding/json does, and an integer for "blocks"); and the enum names
// specFromJSON knows. Anything else — an escape, a non-ASCII byte,
// another key spelling, null, a duplicate key, an out-of-range number,
// a syntax error — goes, as the same bytes, to the reference:
// json.Unmarshal into workloadJSON and specFromJSON, which defines what
// a trace may be and writes every decoding error. Both paths end in the
// model's Validate, and on the subset they produce the same bits.
//
// ReadWorkload and ReadStrategy read one JSON value, as json.Unmarshal
// does: only whitespace may follow it.
package traceio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"npudvfs/internal/core"
	"npudvfs/internal/op"
	"npudvfs/internal/units"
	"npudvfs/internal/workload"
)

// specJSON is the stable wire form of an operator spec.
type specJSON struct {
	Name        string  `json:"name"`
	Shape       string  `json:"shape,omitempty"`
	Class       string  `json:"class"`
	Scenario    string  `json:"scenario,omitempty"`
	Blocks      int     `json:"blocks,omitempty"`
	LoadBytes   float64 `json:"load_bytes,omitempty"`
	StoreBytes  float64 `json:"store_bytes,omitempty"`
	CoreCycles  float64 `json:"core_cycles,omitempty"`
	CorePipe    string  `json:"core_pipe,omitempty"`
	L2Hit       float64 `json:"l2_hit,omitempty"`
	PrePostTime float64 `json:"prepost_us,omitempty"`
	FixedTime   float64 `json:"fixed_us,omitempty"`
}

var classNames = map[op.Class]string{
	op.Compute:       "compute",
	op.AICPU:         "aicpu",
	op.Communication: "communication",
	op.Idle:          "idle",
}

var scenarioNames = map[op.Scenario]string{
	op.PingPongFreeIndep: "pingpongfree-indep",
	op.PingPongFreeDep:   "pingpongfree-dep",
	op.PingPongIndep:     "pingpong-indep",
	op.PingPongDep:       "pingpong-dep",
}

var pipeNames = map[op.Pipe]string{
	op.Cube: "cube", op.Vector: "vector", op.Scalar: "scalar",
	op.MTE1: "mte1", op.MTE2: "mte2", op.MTE3: "mte3",
}

func invert[K comparable, V comparable](m map[K]V) map[V]K {
	out := make(map[V]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

var (
	classValues    = invert(classNames)
	scenarioValues = invert(scenarioNames)
	pipeValues     = invert(pipeNames)
)

func specToJSON(s *op.Spec) specJSON {
	j := specJSON{
		Name:        s.Name,
		Shape:       s.Shape,
		Class:       classNames[s.Class],
		Blocks:      s.Blocks,
		LoadBytes:   s.LoadBytes,
		StoreBytes:  s.StoreBytes,
		CoreCycles:  s.CoreCycles,
		L2Hit:       s.L2Hit,
		PrePostTime: s.PrePostTime,
		FixedTime:   s.FixedTime,
	}
	if s.Class == op.Compute {
		j.Scenario = scenarioNames[s.Scenario]
		j.CorePipe = pipeNames[s.CorePipe]
	}
	return j
}

func specFromJSON(j *specJSON) (op.Spec, error) {
	class, ok := classValues[j.Class]
	if !ok {
		return op.Spec{}, fmt.Errorf("traceio: unknown class %q", j.Class)
	}
	s := op.Spec{
		Name:        j.Name,
		Shape:       j.Shape,
		Class:       class,
		Blocks:      j.Blocks,
		LoadBytes:   j.LoadBytes,
		StoreBytes:  j.StoreBytes,
		CoreCycles:  j.CoreCycles,
		L2Hit:       j.L2Hit,
		PrePostTime: j.PrePostTime,
		FixedTime:   j.FixedTime,
	}
	if class == op.Compute {
		scenario, ok := scenarioValues[j.Scenario]
		if !ok {
			return op.Spec{}, fmt.Errorf("traceio: unknown scenario %q for %s", j.Scenario, j.Name)
		}
		pipe, ok := pipeValues[j.CorePipe]
		if !ok {
			return op.Spec{}, fmt.Errorf("traceio: unknown pipe %q for %s", j.CorePipe, j.Name)
		}
		s.Scenario = scenario
		s.CorePipe = pipe
	}
	return s, nil
}

// workloadJSON is the wire form of a workload.
type workloadJSON struct {
	Name  string     `json:"name"`
	Trace []specJSON `json:"trace"`
}

// WriteWorkload serializes a workload to w.
func WriteWorkload(w io.Writer, m *workload.Model) error {
	if m == nil {
		return fmt.Errorf("traceio: nil workload")
	}
	out := workloadJSON{Name: m.Name, Trace: make([]specJSON, len(m.Trace))}
	for i := range m.Trace {
		out.Trace[i] = specToJSON(&m.Trace[i])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadWorkload deserializes and validates a workload from r. It reads
// all of r, which must hold one JSON value and nothing after it but
// whitespace. A trace in the fast decoder's subset (see the package
// comment) is decoded in one pass; any other input is decoded by the
// encoding/json reference, which also writes every error.
func ReadWorkload(r io.Reader) (*workload.Model, error) {
	// The buffer is sized once when r knows its length, as the
	// *bytes.Reader Resolve passes does; io.ReadAll would grow it from
	// 512 bytes, copying an MB-scale body many times over.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("traceio: reading workload: %w", err)
	}
	data := buf.Bytes()
	m, ok := decodeWorkloadFast(data)
	if !ok {
		var err error
		if m, err = decodeWorkloadReference(data); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeWorkloadReference decodes data with encoding/json. It defines
// what a trace may be: the fast decoder declines whatever it is not
// sure this function would decode to the same model.
func decodeWorkloadReference(data []byte) (*workload.Model, error) {
	var in workloadJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("traceio: decoding workload: %w", err)
	}
	m := &workload.Model{Name: in.Name, Trace: make([]op.Spec, len(in.Trace))}
	for i := range in.Trace {
		s, err := specFromJSON(&in.Trace[i])
		if err != nil {
			return nil, fmt.Errorf("traceio: entry %d: %w", i, err)
		}
		m.Trace[i] = s
	}
	return m, nil
}

// SaveWorkload writes a workload to path.
func SaveWorkload(path string, m *workload.Model) error {
	return saveTo(path, func(w io.Writer) error { return WriteWorkload(w, m) })
}

// LoadWorkload reads a workload from path.
func LoadWorkload(path string) (*workload.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadWorkload(f)
}

// strategyJSON is the wire form of a DVFS strategy.
// strategyJSON carries the units types directly: a defined float64
// type marshals byte-identically to float64, so the wire format is
// unchanged while decoded values arrive pre-dimensioned.
type strategyJSON struct {
	BaselineMHz units.MHz   `json:"baseline_mhz"`
	Points      []pointJSON `json:"points"`
}

type pointJSON struct {
	OpIndex    int          `json:"op_index"`
	TimeMicros units.Micros `json:"time_us"`
	FreqMHz    units.MHz    `json:"freq_mhz"`
}

// WriteStrategy serializes a strategy to w.
func WriteStrategy(w io.Writer, s *core.Strategy) error {
	if s == nil {
		return fmt.Errorf("traceio: nil strategy")
	}
	out := strategyJSON{BaselineMHz: s.BaselineMHz, Points: make([]pointJSON, len(s.Points))}
	for i, p := range s.Points {
		out.Points[i] = pointJSON{OpIndex: p.OpIndex, TimeMicros: p.TimeMicros, FreqMHz: p.FreqMHz}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadStrategy deserializes a strategy from r and checks basic
// invariants (non-negative, strictly ascending operator indices,
// non-negative times, positive frequencies). It rejects a key the wire
// format does not define, so a field from another format (say, a
// per-point uncore scale) is an error rather than silently dropped.
// Like ReadWorkload, it reads all of r and allows only whitespace
// after the value.
func ReadStrategy(r io.Reader) (*core.Strategy, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("traceio: reading strategy: %w", err)
	}
	var in strategyJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: decoding strategy: %w", err)
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, fmt.Errorf("traceio: decoding strategy: %d bytes after the value", len(rest))
	}
	if in.BaselineMHz <= 0 {
		return nil, fmt.Errorf("traceio: baseline frequency %g", float64(in.BaselineMHz))
	}
	s := &core.Strategy{BaselineMHz: in.BaselineMHz}
	prev := -1
	for i, p := range in.Points {
		if p.FreqMHz <= 0 {
			return nil, fmt.Errorf("traceio: point %d has frequency %g", i, float64(p.FreqMHz))
		}
		if p.TimeMicros < 0 {
			return nil, fmt.Errorf("traceio: point %d has time %g µs", i, float64(p.TimeMicros))
		}
		if p.OpIndex < 0 {
			return nil, fmt.Errorf("traceio: point %d has operator index %d", i, p.OpIndex)
		}
		if p.OpIndex <= prev {
			return nil, fmt.Errorf("traceio: point %d out of order (op %d after %d)", i, p.OpIndex, prev)
		}
		prev = p.OpIndex
		s.Points = append(s.Points, core.FreqPoint{OpIndex: p.OpIndex, TimeMicros: p.TimeMicros, FreqMHz: p.FreqMHz})
	}
	return s, nil
}

// SaveStrategy writes a strategy to path.
func SaveStrategy(path string, s *core.Strategy) error {
	return saveTo(path, func(w io.Writer) error { return WriteStrategy(w, s) })
}

// LoadStrategy reads a strategy from path.
func LoadStrategy(path string) (*core.Strategy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStrategy(f)
}

func openFile(path string) (*os.File, error) { return os.Open(path) }

func saveTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
