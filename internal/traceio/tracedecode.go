package traceio

// This file holds ReadWorkload's fast decoder: one forward pass over a
// trace's bytes that builds the op.Specs directly, without
// encoding/json's reflection walk or an intermediate []specJSON. It
// accepts only a subset of JSON (see the package comment) and declines
// everything else, which ReadWorkload then hands to the encoding/json
// reference (decodeWorkloadReference). The subset is chosen so that on
// it the two decoders cannot differ: the tests hold this one to the
// reference, field by field and bit by bit.

import (
	"strconv"

	"npudvfs/internal/op"
	"npudvfs/internal/workload"
)

// Fields of a trace entry, in specJSON's declaration order. The order
// matters to nothing but the bit each takes in spec's seen set.
const (
	fieldName = iota
	fieldShape
	fieldClass
	fieldScenario
	fieldBlocks
	fieldLoadBytes
	fieldStoreBytes
	fieldCoreCycles
	fieldCorePipe
	fieldL2Hit
	fieldPrePost
	fieldFixed
)

// traceDecoder walks one trace body. It lives for one ReadWorkload
// call: strs interns the name and shape strings, of which a trace holds
// few distinct ones (86.5–99.5 % of the registry's operators repeat an
// earlier one), so each is allocated once per call, and nothing outlasts
// the call.
type traceDecoder struct {
	data []byte
	pos  int
	strs map[string]string
}

// decodeWorkloadFast decodes data if it lies in the fast decoder's
// subset, and reports false otherwise. It does not validate the model.
func decodeWorkloadFast(data []byte) (*workload.Model, bool) {
	d := traceDecoder{data: data, strs: make(map[string]string)}
	// The reference makes the trace with make([]op.Spec, n): never nil.
	m := &workload.Model{Trace: []op.Spec{}}
	var seen uint8
	ok := d.object(func(key []byte) bool {
		var (
			bit uint8
			ok  bool
		)
		switch string(key) {
		case "name":
			bit = 1
			m.Name, ok = d.internedString()
		case "trace":
			bit = 2
			m.Trace, ok = d.trace()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	if !ok {
		return nil, false
	}
	// Like json.Unmarshal: only whitespace may follow the value.
	d.skipSpace()
	if d.pos != len(d.data) {
		return nil, false
	}
	return m, true
}

// trace decodes the array of entries.
func (d *traceDecoder) trace() ([]op.Spec, bool) {
	if !d.consume('[') {
		return nil, false
	}
	trace := []op.Spec{}
	if d.consume(']') {
		return trace, true
	}
	for {
		trace = append(trace, op.Spec{})
		if !d.spec(&trace[len(trace)-1]) {
			return nil, false
		}
		if !d.consume(',') {
			return trace, d.consume(']')
		}
	}
}

// spec decodes one entry into s, resolving the enum strings the way
// specFromJSON does: scenario and core_pipe are read for a compute
// operator and ignored for any other class. An enum string
// specFromJSON would reject is declined, so the reference writes the
// error.
func (d *traceDecoder) spec(s *op.Spec) bool {
	var (
		class, scenario, pipe []byte
		seen                  uint16
	)
	ok := d.object(func(key []byte) bool {
		var (
			field uint
			ok    bool
		)
		switch string(key) {
		case "name":
			field = fieldName
			s.Name, ok = d.internedString()
		case "shape":
			field = fieldShape
			s.Shape, ok = d.internedString()
		case "class":
			field = fieldClass
			class, ok = d.str()
		case "scenario":
			field = fieldScenario
			scenario, ok = d.str()
		case "blocks":
			field = fieldBlocks
			s.Blocks, ok = d.int()
		case "load_bytes":
			field = fieldLoadBytes
			s.LoadBytes, ok = d.float()
		case "store_bytes":
			field = fieldStoreBytes
			s.StoreBytes, ok = d.float()
		case "core_cycles":
			field = fieldCoreCycles
			s.CoreCycles, ok = d.float()
		case "core_pipe":
			field = fieldCorePipe
			pipe, ok = d.str()
		case "l2_hit":
			field = fieldL2Hit
			s.L2Hit, ok = d.float()
		case "prepost_us":
			field = fieldPrePost
			s.PrePostTime, ok = d.float()
		case "fixed_us":
			field = fieldFixed
			s.FixedTime, ok = d.float()
		default:
			return false
		}
		if !ok || seen&(1<<field) != 0 {
			return false
		}
		seen |= 1 << field
		return true
	})
	if !ok {
		return false
	}
	if s.Class, ok = classValues[string(class)]; !ok {
		return false
	}
	if s.Class == op.Compute {
		if s.Scenario, ok = scenarioValues[string(scenario)]; !ok {
			return false
		}
		if s.CorePipe, ok = pipeValues[string(pipe)]; !ok {
			return false
		}
	}
	return true
}

// object walks a JSON object. For each member it reads the key and the
// colon, then calls field, which decodes the value and reports whether
// it lay in the subset. Keys are strings in the subset too.
func (d *traceDecoder) object(field func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		d.skipSpace()
		key, ok := d.str()
		if !ok || !d.consume(':') {
			return false
		}
		d.skipSpace()
		if !field(key) {
			return false
		}
		if d.consume(',') {
			continue
		}
		return d.consume('}')
	}
}

// str reads a string of printable ASCII without a backslash and returns
// the bytes between the quotes, which are then the decoded value.
func (d *traceDecoder) str() ([]byte, bool) {
	data := d.data
	if d.pos >= len(data) || data[d.pos] != '"' {
		return nil, false
	}
	start := d.pos + 1
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start:i], true
		case c < 0x20, c > 0x7e, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// internedString reads a string and returns the call's one copy of it.
func (d *traceDecoder) internedString() (string, bool) {
	b, ok := d.str()
	if !ok {
		return "", false
	}
	s, seen := d.strs[string(b)]
	if !seen {
		s = string(b)
		d.strs[s] = s
	}
	return s, true
}

// float reads a number into a float64 field with the call encoding/json
// makes, so the bits are the same; a number out of float64's range is
// declined.
func (d *traceDecoder) float() (float64, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int reads a number into the int field; like encoding/json, it
// declines a fraction, an exponent or a value int cannot hold.
func (d *traceDecoder) int() (int, bool) {
	lit, ok := d.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// number reads a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What follows it is
// the caller's to check.
func (d *traceDecoder) number() ([]byte, bool) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		return nil, false
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			return nil, false
		}
		i = digits(data, i+1)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return nil, false
		}
		i = digits(data, i+1)
	}
	d.pos = i
	return data[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// consume skips whitespace and then c, reporting whether c was there.
func (d *traceDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// skipSpace skips JSON whitespace.
func (d *traceDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}
