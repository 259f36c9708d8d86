// Command npu-profile plays the role of the CANN profiler: it executes
// a workload iteration on the simulated NPU at one or more core
// frequencies and prints per-class and per-bottleneck summaries, the
// LFC/HFC stage structure, and optionally a per-operator dump.
//
// Usage:
//
//	npu-profile -model gpt3 -freqs 1000,1800
//	npu-profile -model bert -freqs 1800 -ops -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"npudvfs/internal/classify"
	"npudvfs/internal/npu"
	"npudvfs/internal/preprocess"
	"npudvfs/internal/profiler"
	"npudvfs/internal/traceio"
	"npudvfs/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "npu-profile:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("npu-profile", flag.ExitOnError)
	fs.SetOutput(stderr)
	modelName := fs.String("model", "gpt3", "workload name ("+strings.Join(workload.Names(), ", ")+")")
	freqArg := fs.String("freqs", "1800", "comma-separated core frequencies in MHz")
	dumpOps := fs.Bool("ops", false, "dump every operator record")
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	faiMs := fs.Float64("fai", 5, "frequency adjustment interval in ms for stage summary")
	seed := fs.Int64("seed", 1, "measurement-noise seed")
	saveTrace := fs.String("save-trace", "", "export the workload trace JSON to this path")
	chromeTrace := fs.String("chrome-trace", "", "export a chrome://tracing timeline of the first profiled frequency")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := workload.ByName(*modelName)
	if err != nil {
		return err
	}
	if *saveTrace != "" {
		if err := traceio.SaveWorkload(*saveTrace, m); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s\n", *saveTrace)
	}
	var freqs []float64
	for _, part := range strings.Split(*freqArg, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad frequency %q: %w", part, err)
		}
		freqs = append(freqs, f)
	}
	chip := npu.Default()
	p := profiler.New(chip, *seed)
	for i, f := range freqs {
		prof, err := p.Run(m.Trace, f)
		if err != nil {
			return err
		}
		if i == 0 && *chromeTrace != "" {
			if err := traceio.SaveChromeTrace(*chromeTrace, prof, nil); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "chrome trace written to %s\n", *chromeTrace)
		}
		if *asJSON {
			err = emitJSON(stdout, prof, *dumpOps)
		} else {
			err = report(stdout, m, prof, *faiMs*1000, *dumpOps)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func report(w io.Writer, m *workload.Model, prof *profiler.Profile, faiMicros float64, dumpOps bool) error {
	fmt.Fprintf(w, "== %s at %.0f MHz: %d operators, iteration %.3f ms\n",
		m.Name, prof.FreqMHz, prof.Len(), prof.TotalMicros/1000)
	results := classify.Trace(prof)
	timeBy := map[classify.Bottleneck]float64{}
	countBy := classify.Histogram(results)
	sensTime := 0.0
	for i, r := range results {
		timeBy[r.Bottleneck] += prof.DurMicros[i]
		if r.Sensitive {
			sensTime += prof.DurMicros[i]
		}
	}
	fmt.Fprintf(w, "   frequency-sensitive time: %.1f%%\n", 100*sensTime/prof.TotalMicros)
	for b := classify.NoPipeline; b <= classify.IdleSlot; b++ {
		if countBy[b] == 0 {
			continue
		}
		fmt.Fprintf(w, "   %-14s ops=%6d  time=%6.2f%%\n",
			b, countBy[b], 100*timeBy[b]/prof.TotalMicros)
	}
	stages, err := preprocess.Stages(prof, results, faiMicros)
	if err != nil {
		return err
	}
	lfc := 0
	for _, s := range stages {
		if !s.Sensitive {
			lfc++
		}
	}
	fmt.Fprintf(w, "   stages at %.0f ms FAI: %d (%d LFC, %d HFC)\n",
		faiMicros/1000, len(stages), lfc, len(stages)-lfc)
	if dumpOps {
		for i := range prof.Trace {
			spec := &prof.Trace[i]
			fmt.Fprintf(w, "   #%05d %-28s %-13s %9.2f us  %v\n",
				i, spec.Key(), spec.Class, prof.DurMicros[i], results[i].Bottleneck)
		}
	}
	return nil
}

// jsonRecord is the stable JSON projection of a profiled operator.
type jsonRecord struct {
	Index  int     `json:"index"`
	Key    string  `json:"key"`
	Class  string  `json:"class"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Bottle string  `json:"bottleneck"`
}

func emitJSON(w io.Writer, prof *profiler.Profile, dumpOps bool) error {
	results := classify.Trace(prof)
	out := struct {
		FreqMHz     float64      `json:"freq_mhz"`
		TotalMicros float64      `json:"total_us"`
		Operators   int          `json:"operators"`
		Records     []jsonRecord `json:"records,omitempty"`
	}{
		FreqMHz:     prof.FreqMHz,
		TotalMicros: prof.TotalMicros,
		Operators:   prof.Len(),
	}
	if dumpOps {
		start := 0.0
		for i := range prof.Trace {
			spec := &prof.Trace[i]
			out.Records = append(out.Records, jsonRecord{
				Index:  i,
				Key:    spec.Key(),
				Class:  spec.Class.String(),
				Start:  start,
				Dur:    prof.DurMicros[i],
				Bottle: results[i].Bottleneck.String(),
			})
			start += prof.DurMicros[i]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
