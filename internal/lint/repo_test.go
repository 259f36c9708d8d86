package lint

import (
	"os"
	"path/filepath"
	"reflect"
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
