package lint

import (
	"strings"
	"testing"
)

// Tests for lockorder: golden fixtures for pairing and per blocking
// kind, cross-package fact propagation (two-package lock cycles,
// held-callback edges) and package scoping.

// TestLockPairGolden: the pairing rule runs in every package, here one
// outside the serving/search packages the other two rules cover.
func TestLockPairGolden(t *testing.T) {
	p := loadTestPkg(t, "lockpair", "npudvfs/internal/lockpair")
	checkGolden(t, p, []*Analyzer{LockOrder})
}

func TestLockOrderGolden(t *testing.T) {
	p := loadTestPkg(t, "lockorder", "npudvfs/internal/server")
	checkGolden(t, p, []*Analyzer{LockOrder})
}

// TestLockOrderScoped: the same file outside the serving/search
// packages produces no lockorder findings (its allow directive
// correctly surfaces as unused there).
func TestLockOrderScoped(t *testing.T) {
	p := loadTestPkg(t, "lockorder", "npudvfs/internal/telemetry")
	for _, d := range Run(p, []*Analyzer{LockOrder}) {
		if d.Rule == "lockorder" {
			t.Errorf("lockorder fired outside its scoped packages: %s", d)
		} else if d.Rule != "directive" || !strings.Contains(d.Message, "unused directive") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestLockOrderCrossPackage: a two-package lock-order cycle closed
// through a held-callback edge, a callback self-deadlock, and a held
// channel send, all resolved through the fact store.
func TestLockOrderCrossPackage(t *testing.T) {
	p := loadTestPkgWithDeps(t, map[string]string{
		"lockorderdep": "npudvfs/internal/cluster/ring",
		"lockorderx":   "npudvfs/internal/pool",
	}, "npudvfs/internal/pool")
	checkGolden(t, p, []*Analyzer{LockOrder})
}
