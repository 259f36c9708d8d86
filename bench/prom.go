package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of dvfsd's /metrics: series name, labels
// included exactly as rendered (`dvfsd_stage_seconds_sum{stage="model"}`),
// to value.
type promSample map[string]float64

// parseProm parses Prometheus text exposition. Only what dvfsd emits
// is handled: comment lines, and `name{labels} value` with no
// timestamps and no spaces inside label values.
func parseProm(text string) (promSample, error) {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// delta returns after−before for one series; a series absent from a
// scrape counts as zero there (dvfsd renders histogram series only
// once observed).
func (after promSample) delta(before promSample, series string) float64 {
	return after[series] - before[series]
}
