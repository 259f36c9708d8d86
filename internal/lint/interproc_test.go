package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// Tests for the fact-based interprocedural analyzer errsink: golden
// true-positive + allowlisted cases, cross-package fact propagation,
// and the engine guarantees (selectable by name, unused directives)
// for the three interprocedural rules.

// loadTestPkgWithDeps mounts several testdata packages on one Loader
// (so facts propagate between them) and returns the package loaded
// last. mounts maps testdata/src names to synthetic import paths;
// target selects which import path to load and return — its
// dependencies load implicitly through the import graph.
func loadTestPkgWithDeps(t *testing.T, mounts map[string]string, target string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for name, importPath := range mounts {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("abs: %v", err)
		}
		ld.Mount(importPath, dir)
	}
	p, err := ld.Load(target)
	if err != nil {
		t.Fatalf("load %s: %v", target, err)
	}
	return p
}

func TestErrSinkGolden(t *testing.T) {
	p := loadTestPkg(t, "errsink", "npudvfs/internal/server")
	checkGolden(t, p, []*Analyzer{ErrSink})
}

// TestErrSinkScoped: the same file outside the serving/cluster
// packages produces no errsink findings (the allow directive correctly
// surfaces as unused there).
func TestErrSinkScoped(t *testing.T) {
	p := loadTestPkg(t, "errsink", "npudvfs/internal/ga")
	for _, d := range Run(p, []*Analyzer{ErrSink}) {
		if d.Rule == "errsink" {
			t.Errorf("errsink fired outside its scoped packages: %s", d)
		} else if d.Rule != "directive" || !strings.Contains(d.Message, "unused directive") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestErrSinkCrossPackage pins interprocedural propagation across a
// package boundary: fsio.Commit wraps os.Rename in one package, and
// discarding its error in another is flagged through the fact store.
func TestErrSinkCrossPackage(t *testing.T) {
	p := loadTestPkgWithDeps(t, map[string]string{
		"errsinkdep": "npudvfs/internal/fsio",
		"errsinkx":   "npudvfs/internal/cluster/jobstore",
	}, "npudvfs/internal/cluster/jobstore")
	checkGolden(t, p, []*Analyzer{ErrSink})
}

// TestNewRulesSelectable: each new analyzer resolves by name and lists
// a doc string (the -rules/-list contract).
func TestNewRulesSelectable(t *testing.T) {
	for _, rule := range []string{"errsink", "lockorder"} {
		as, err := SelectAnalyzers(rule)
		if err != nil || len(as) != 1 || as[0].Name != rule {
			t.Fatalf("SelectAnalyzers(%q) = %v, %v", rule, as, err)
		}
		if as[0].Doc == "" {
			t.Fatalf("analyzer %q has no doc string", rule)
		}
	}
}

// TestNewRulesUnusedAllow: the unused-directive guarantee holds for
// the new rules — a no-op exemption is a finding when its rule runs,
// and silent when it doesn't.
func TestNewRulesUnusedAllow(t *testing.T) {
	for _, rule := range []string{"errsink", "lockorder"} {
		src := "package server\n\n//lint:allow " + rule + " stale exemption kept for the engine test\nfunc ok() int {\n\treturn 1\n}\n"
		p := mountSource(t, "npudvfs/internal/server", "stale.go", src)
		diags := Run(p, Analyzers())
		if len(diags) != 1 || diags[0].Rule != "directive" || !strings.Contains(diags[0].Message, rule) {
			t.Fatalf("rule %s: got %v, want one unused-directive finding", rule, diags)
		}
		if diags := Run(p, []*Analyzer{DetRand}); len(diags) != 0 {
			t.Fatalf("rule %s: unused directive reported under -rules detrand: %v", rule, diags)
		}
	}
}
