package npudvfs

import (
	"os/exec"
	"testing"
)

// TestBenchModuleCompiles vets the serving benchmark, a module of its
// own (bench/go.mod, replace npudvfs => ../) that go build ./... and
// go test ./... never compile. It imports internal packages, so an API
// change there can break the benchmark with every root test still
// green; this is the first half of make bench-build.
func TestBenchModuleCompiles(t *testing.T) {
	// go test puts its own toolchain first on the test's PATH.
	out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
