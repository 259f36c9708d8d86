package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsNonFiniteFrequency: NaN and ±Inf used to pass the
// profiler's fMHz <= 0 check, so npu-profile printed "iteration NaN
// ms" tables and exited 0. They are errors now, as zero and negative
// frequencies always were; a finite one still profiles.
func TestRejectsNonFiniteFrequency(t *testing.T) {
	for _, f := range []string{"NaN", "+Inf", "-Inf", "0", "-1400"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-model", "vit", "-freqs", f}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "invalid frequency") {
			t.Errorf("-freqs %s: err = %v, want an invalid-frequency error", f, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-freqs %s printed a report:\n%s", f, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-model", "vit", "-freqs", "1400"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "== Vit_base at 1400 MHz: 721 operators") {
		t.Errorf("unexpected report:\n%s", stdout.String())
	}
}
