package main

import (
	"strings"
	"testing"
)

// TestRulesListing pins the registered analyzer set and its order: the
// listing is the suite's discoverability surface (-rules list), so an
// added, renamed, or reordered analyzer must show up here — and in
// DESIGN.md §9 — deliberately.
func TestRulesListing(t *testing.T) {
	want := []string{
		"detrand", "floateq", "goleak", "unitcheck",
		"errsink", "lockorder",
	}
	listing := rulesListing()
	lines := strings.Split(strings.TrimRight(listing, "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("listing has %d lines, want %d:\n%s", len(lines), len(want), listing)
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d %q: want a rule name followed by a description", i, line)
		}
		if fields[0] != want[i] {
			t.Errorf("line %d: rule %q, want %q", i, fields[0], want[i])
		}
	}
}
