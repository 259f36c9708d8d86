package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRepoLintClean is the gate the Makefile's lint target mirrors: the
// full analyzer suite over the whole module must produce zero
// unsuppressed diagnostics. Any new violation either gets fixed or gets
// an in-tree //lint:allow justification — never merged silently.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	diags, err := RunAll(root, Analyzers())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// allowBudget is the most //lint:allow directives each rule may carry
// in the non-test files outside internal/lint. When an exemption goes,
// lower its rule's number; raising one is a decision for review. A
// test file may carry none: the Loader never type-checks *_test.go, so
// no analyzer reads it and an allow there would excuse nothing, and
// would never be reported as stale.
var allowBudget = map[string]int{
	"detrand":   2,
	"errsink":   3,
	"floateq":   8,
	"goleak":    1,
	"unitcheck": 2,
}

// TestAllowBudget counts the //lint:allow directives in the module's
// package directories outside internal/lint, per rule, with the
// engine's own directive parser, and fails if a rule has more than its
// budget or a test file has any.
func TestAllowBudget(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := ld.moduleDirs()
	if err != nil {
		t.Fatalf("moduleDirs: %v", err)
	}
	lintDir := filepath.Join(root, "internal", "lint")
	p := &Package{Fset: token.NewFileSet()}
	bad := func(pos token.Pos, format string, args ...any) {
		t.Errorf("%s: %s", p.Fset.Position(pos), fmt.Sprintf(format, args...))
	}
	got := map[string]int{}
	for _, dir := range dirs {
		if dir == lintDir || strings.HasPrefix(dir, lintDir+string(filepath.Separator)) {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(p.Fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range parseAllows(p, f, bad) {
				if strings.HasSuffix(path, "_test.go") {
					t.Errorf("%s:%d: //lint:allow %s in a test file: no analyzer reads test files, so it excuses nothing", path, a.line, a.rule)
					continue
				}
				got[a.rule]++
			}
		}
	}
	for rule, n := range got {
		if n > allowBudget[rule] {
			t.Errorf("%d //lint:allow %s directives, budget %d: remove the new exemption, or raise the budget in review", n, rule, allowBudget[rule])
		}
	}
	for rule, budget := range allowBudget {
		if got[rule] < budget {
			t.Logf("%d //lint:allow %s directives, budget %d: lower the budget", got[rule], rule, budget)
		}
	}
}

// TestRunAllIsRunOverLoadAll: the whole-module driver has one path —
// RunAll is exactly Run over each of LoadAll's packages, concatenated
// in import-path order, the same Load/Run pair every golden test
// drives through Mount. The module is synthetic so both sides carry
// findings (the real tree is clean): "a" imports "z", so loading "a"
// type-checks "z" first, and the report must still list "a" first.
func TestRunAllIsRunOverLoadAll(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":   "module example.test/m\n",
		"a/a.go":   "package a\n\nimport \"example.test/m/z\"\n\nfunc Same(x float64) bool { return x == z.Zero }\n",
		"z/z.go":   "package z\n\nconst Zero = 0.0\n\nfunc IsZero(x float64) bool { return x != Zero }\n",
		"z/dir.go": "package z\n\n//lint:allow floateq\nvar _ = 0\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := RunAll(root, Analyzers())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	var want []Diagnostic
	var order []string
	for _, p := range pkgs {
		order = append(order, p.ImportPath)
		want = append(want, Run(p, Analyzers())...)
	}
	if !reflect.DeepEqual(order, []string{"example.test/m/a", "example.test/m/z"}) {
		t.Fatalf("LoadAll order = %v, want import-path order", order)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunAll diverged from Run over LoadAll:\ngot:  %v\nwant: %v", got, want)
	}
	var rules []string
	for _, d := range got {
		rules = append(rules, filepath.Base(d.Pos.Filename)+":"+d.Rule)
	}
	if wantRules := []string{"a.go:floateq", "dir.go:directive", "z.go:floateq"}; !reflect.DeepEqual(rules, wantRules) {
		t.Fatalf("RunAll findings = %v, want %v", rules, wantRules)
	}
}
