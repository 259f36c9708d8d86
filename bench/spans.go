package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans
// of one logical request share Request; Parent is the ID of the span
// that caused it (0 for a request's root). Times are microseconds
// since the recorder started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s *span) durMillis() float64 { return (s.EndUS - s.StartUS) / 1000 }

// recorder keeps spans in memory; nothing is written until the replay
// ends. It is used from one goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 {
	return float64(time.Since(r.t0)) / float64(time.Microsecond)
}

// start opens a span and returns its ID (IDs start at 1).
func (r *recorder) start(name string, parent, request int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name, StartUS: r.now(),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].EndUS = r.now() }

// add records a span whose duration was measured elsewhere (the
// server's own queue_ms/search_ms), anchored at startUS.
func (r *recorder) add(name string, parent, request int, startUS, durMillis float64) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Request: request, Name: name,
		StartUS: startUS, EndUS: startUS + durMillis*1000,
	})
	return len(r.spans)
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, request int, fn func()) int {
	id := r.start(name, parent, request)
	fn()
	r.end(id)
	return id
}

// selfMillis returns each span's self time: its duration minus the
// part of its interval covered by its direct children. Overlapping
// children are merged first and clipped to the parent, so an interval
// covered twice is subtracted once.
func selfMillis(spans []span) map[int]float64 {
	children := make(map[int][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, edge := 0.0, p.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, edge), min(k.EndUS, p.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[p.ID] = (p.EndUS - p.StartUS - covered) / 1000
	}
	return out
}

// writeSpans dumps the replay's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
