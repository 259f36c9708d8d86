package main

import (
	"os/exec"
	"strings"
	"testing"
)

// harnessPkgs are the packages behind the paper's experiments. The
// daemon reaches the pipeline through internal/pipeline and must link
// none of them.
var harnessPkgs = []string{
	"npudvfs/internal/experiments",
	"npudvfs/internal/plot",
	"npudvfs/internal/pool",
}

// TestDaemonLinksNoHarness holds dvfsd's dependency graph: the
// experiment harness, its plotting and fan-out stay out of the daemon.
func TestDaemonLinksNoHarness(t *testing.T) {
	// go test puts its own toolchain first on the test's PATH.
	out, err := exec.Command("go", "list", "-deps", "npudvfs/cmd/dvfsd").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	deps := make(map[string]bool)
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["npudvfs/internal/pipeline"] {
		t.Fatalf("go list -deps npudvfs/cmd/dvfsd lists no npudvfs/internal/pipeline:\n%s", out)
	}
	for _, p := range harnessPkgs {
		if deps[p] {
			t.Errorf("dvfsd links %s", p)
		}
	}
}
