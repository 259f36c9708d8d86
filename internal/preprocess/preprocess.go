// Package preprocess implements the DVFS candidate-point preparation
// of Sect. 6.2 (Fig. 13). Starting from a profiled operator sequence
// and its bottleneck classification, it:
//
//  1. splits the execution into Low Frequency Candidate (LFC) and High
//     Frequency Candidate (HFC) stages: maximal runs of
//     frequency-insensitive and frequency-sensitive entries, whose
//     starts are the initial frequency candidate points; and
//  2. merges candidates whose stage is shorter than the frequency
//     adjustment interval (e.g. 5 ms) into an adjacent candidate, so
//     the executor is never asked to retune faster than the hardware
//     can act.
//
// The resulting stages are the genes of the genetic-algorithm search:
// one frequency choice per stage.
package preprocess

import (
	"fmt"

	"npudvfs/internal/classify"
	"npudvfs/internal/profiler"
)

// Stage is one frequency-candidate interval.
type Stage struct {
	// OpStart and OpEnd delimit the trace indices [OpStart, OpEnd).
	OpStart, OpEnd int
	// StartMicros and DurMicros locate the stage within the profiled
	// iteration.
	StartMicros, DurMicros float64
	// Sensitive marks HFC stages (frequency-sensitive work dominates);
	// LFC stages have it false.
	Sensitive bool
}

// Stages builds merged frequency-candidate stages from a profile and
// its per-record classification. faiMicros is the frequency adjustment
// interval; stages shorter than it are merged into their longer
// neighbor. A non-positive faiMicros disables merging.
func Stages(prof *profiler.Profile, results []classify.Result, faiMicros float64) ([]Stage, error) {
	if prof == nil || prof.Len() == 0 {
		return nil, fmt.Errorf("preprocess: empty profile")
	}
	if len(results) != prof.Len() {
		return nil, fmt.Errorf("preprocess: %d classifications for %d records",
			len(results), prof.Len())
	}
	// Step 3 of Fig. 13: split on sensitivity changes.
	var stages []Stage
	cur := Stage{OpStart: 0, Sensitive: results[0].Sensitive}
	for i := range prof.Trace {
		if results[i].Sensitive != cur.Sensitive {
			cur.OpEnd = i
			stages = append(stages, cur)
			cur = Stage{OpStart: i, Sensitive: results[i].Sensitive}
		}
	}
	cur.OpEnd = prof.Len()
	stages = append(stages, cur)
	// A stage starts where the profile's running sum of durations
	// stands at its first entry.
	now := 0.0
	for si := range stages {
		s := &stages[si]
		s.StartMicros = now
		for _, d := range prof.DurMicros[s.OpStart:s.OpEnd] {
			s.DurMicros += d
			now += d
		}
	}
	if faiMicros <= 0 {
		return stages, nil
	}
	return mergeShort(stages, faiMicros), nil
}

// mergeShort is step 4 of Fig. 13: repeatedly merge the shortest
// sub-threshold stage into its longer neighbor, whose sensitivity
// label wins. Among equally short stages the leftmost goes first; the
// right neighbor absorbs only when strictly longer than the left, and
// the first stage always merges right.
//
// Stages stay in their slice slots, linked through prev/next, and a
// merge keeps the left slot of the pair, so slot order is stage order.
// Sub-threshold stages wait in a min-heap on (duration, slot). A merge
// does not fix the heap up: the absorbed slot is marked dead, the
// surviving one bumps its version and is pushed again, and entries
// whose slot is dead or whose version is stale are dropped when they
// surface.
func mergeShort(stages []Stage, faiMicros float64) []Stage {
	n := len(stages)
	prev, next := make([]int, n), make([]int, n)
	version := make([]int, n) // -1 once absorbed
	h := make(shortHeap, 0, n)
	for i := range stages {
		prev[i], next[i] = i-1, i+1
		if stages[i].DurMicros < faiMicros {
			h = append(h, shortEntry{dur: stages[i].DurMicros, slot: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for alive := n; alive > 1 && len(h) > 0; {
		e := h.pop()
		i := e.slot
		if version[i] != e.version {
			continue
		}
		target := prev[i]
		if target < 0 || (next[i] < n && stages[next[i]].DurMicros > stages[target].DurMicros) {
			target = next[i]
		}
		lo, hi := i, target
		if lo > hi {
			lo, hi = hi, lo
		}
		stages[lo] = Stage{
			OpStart:     stages[lo].OpStart,
			OpEnd:       stages[hi].OpEnd,
			StartMicros: stages[lo].StartMicros,
			DurMicros:   stages[lo].DurMicros + stages[hi].DurMicros,
			Sensitive:   stages[target].Sensitive,
		}
		next[lo] = next[hi]
		if next[hi] < n {
			prev[next[hi]] = lo
		}
		version[hi] = -1
		version[lo]++
		alive--
		if stages[lo].DurMicros < faiMicros {
			h.push(shortEntry{dur: stages[lo].DurMicros, slot: lo, version: version[lo]})
		}
	}
	out := stages[:0]
	for i := 0; i < n; i = next[i] {
		out = append(out, stages[i])
	}
	return out
}

// shortEntry is a stage waiting to be merged, as it was when queued.
type shortEntry struct {
	dur     float64
	slot    int
	version int
}

// shortHeap is a binary min-heap of shortEntry on (dur, slot).
type shortHeap []shortEntry

func (h shortHeap) less(i, j int) bool {
	if h[i].dur < h[j].dur {
		return true
	}
	if h[i].dur > h[j].dur {
		return false
	}
	return h[i].slot < h[j].slot
}

func (h *shortHeap) push(e shortEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *shortHeap) pop() shortEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

func (h shortHeap) down(i int) {
	for {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Validate checks that stages tile the trace contiguously.
func Validate(stages []Stage, numRecords int) error {
	if len(stages) == 0 {
		return fmt.Errorf("preprocess: no stages")
	}
	if stages[0].OpStart != 0 {
		return fmt.Errorf("preprocess: first stage starts at %d", stages[0].OpStart)
	}
	for i := 1; i < len(stages); i++ {
		if stages[i].OpStart != stages[i-1].OpEnd {
			return fmt.Errorf("preprocess: gap between stages %d and %d", i-1, i)
		}
	}
	if last := stages[len(stages)-1].OpEnd; last != numRecords {
		return fmt.Errorf("preprocess: last stage ends at %d, want %d", last, numRecords)
	}
	return nil
}
