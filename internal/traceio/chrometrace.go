package traceio

import (
	"encoding/json"
	"fmt"
	"io"

	"npudvfs/internal/core"
	"npudvfs/internal/op"
	"npudvfs/internal/profiler"
)

// Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a JSON array of events viewable in chrome://tracing or Perfetto.
// Profiles export as complete ("X") events on per-class tracks, with
// the operator key, bottleneck-relevant ratios and the core frequency
// in args; strategies add instant ("i") SetFreq markers on a control
// track.

// chromeEvent is one trace-event entry.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// trackOf maps trace-entry classes to display threads.
func trackOf(class op.Class) int {
	switch class {
	case op.Compute:
		return 1
	case op.AICPU:
		return 2
	case op.Communication:
		return 3
	default:
		return 4 // idle
	}
}

// WriteChromeTrace exports a profiled iteration (and optionally the
// strategy applied to it) as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, prof *profiler.Profile, strat *core.Strategy) error {
	if prof == nil || prof.Len() == 0 {
		return fmt.Errorf("traceio: empty profile")
	}
	events := make([]chromeEvent, 0, prof.Len()+16)
	start := 0.0
	for i := range prof.Trace {
		spec, dur := &prof.Trace[i], prof.DurMicros[i]
		args := map[string]any{
			"key":      spec.Key(),
			"class":    spec.Class.String(),
			"freq_mhz": prof.FreqMHz,
		}
		if spec.Class == op.Compute && prof.Ratios != nil {
			r := &prof.Ratios[i]
			args["scenario"] = spec.Scenario.String()
			args["ratio_core"] = r[spec.CorePipe]
			args["ratio_ld"] = r[op.MTE2]
			args["ratio_st"] = r[op.MTE3]
		}
		if prof.SoCW != nil && prof.SoCW[i] > 0 {
			args["soc_w"] = prof.SoCW[i]
			args["aicore_w"] = prof.AICoreW[i]
		}
		events = append(events, chromeEvent{
			Name:  spec.Name,
			Cat:   spec.Class.String(),
			Phase: "X",
			TS:    start,
			Dur:   dur,
			PID:   1,
			TID:   trackOf(spec.Class),
			Args:  args,
		})
		start += dur
	}
	if strat != nil {
		for _, p := range strat.Points {
			args := map[string]any{"freq_mhz": float64(p.FreqMHz), "op_index": p.OpIndex}
			events = append(events, chromeEvent{
				Name:  fmt.Sprintf("SetFreq %0.f", float64(p.FreqMHz)),
				Cat:   "dvfs",
				Phase: "i",
				TS:    float64(p.TimeMicros),
				PID:   1,
				TID:   0,
				Scope: "p",
				Args:  args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// SaveChromeTrace writes the Chrome trace to a file.
func SaveChromeTrace(path string, prof *profiler.Profile, strat *core.Strategy) error {
	return saveTo(path, func(w io.Writer) error { return WriteChromeTrace(w, prof, strat) })
}
