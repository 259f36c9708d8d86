package main

import (
	"fmt"
	"sort"
)

// tailPercent is the tail percentile every latency metric reports and
// minBeyond the number of samples that must lie beyond it: a
// percentile with fewer than ten samples past it is an anecdote, not a
// tail. Every workload completes well over 100 requests in its window,
// so p90 is the highest round percentile all of them support; a window
// that yields fewer fails the run rather than report a thinner tail.
const (
	tailPercent = 90
	minBeyond   = 10
)

// rankOf returns the 1-based nearest-rank index of the p-th percentile
// among n samples: ceil(p·n/100), in integer arithmetic so p=90, n=100
// is exactly rank 90.
func rankOf(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// samplesBeyond returns how many of n samples rank above the p-th
// percentile.
func samplesBeyond(n, p int) int { return n - rankOf(n, p) }

// percentile returns the nearest-rank p-th percentile of sorted, which
// must be ascending and non-empty.
func percentile(sorted []float64, p int) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// tail returns the tailPercent-th percentile, or an error when fewer
// than minBeyond samples lie beyond it.
func tail(sorted []float64) (float64, error) {
	if b := samplesBeyond(len(sorted), tailPercent); b < minBeyond {
		return 0, fmt.Errorf("p%d needs %d samples beyond it, %d samples give %d",
			tailPercent, minBeyond, len(sorted), b)
	}
	return percentile(sorted, tailPercent), nil
}

// sortedCopy returns v sorted ascending without disturbing v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the nearest-rank median of v (0 for no samples).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return percentile(sortedCopy(v), 50)
}
