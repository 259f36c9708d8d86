package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests mount testdata/src/<name> under a synthetic
// module-internal import path (so package-scoped rules like detrand's
// deterministic-package list fire) and compare the analyzer output
// against `// want rule `substring`` expectations written on the
// flagged lines.

// loadTestPkg loads testdata/src/<name> as importPath.
func loadTestPkg(t *testing.T, name, importPath string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	ld.Mount(importPath, dir)
	p, err := ld.Load(importPath)
	if err != nil {
		t.Fatalf("load %s (%s): %v", name, importPath, err)
	}
	return p
}

// want is one expectation: a diagnostic of rule whose message contains
// substr, on the line the comment sits on.
type want struct {
	rule    string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile("(\\w+) `([^`]*)`")

// collectWants parses `// want rule `substring“ comments; several
// rule/substring pairs may share one comment.
func collectWants(p *Package) map[int][]*want {
	wants := map[int][]*want{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					wants[line] = append(wants[line], &want{rule: m[1], substr: m[2]})
				}
			}
		}
	}
	return wants
}

func matchWant(ws []*want, d Diagnostic) bool {
	for _, w := range ws {
		if !w.matched && w.rule == d.Rule && strings.Contains(d.Message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// checkGolden runs the analyzers and requires an exact bijection
// between diagnostics and want comments.
func checkGolden(t *testing.T, p *Package, analyzers []*Analyzer) {
	t.Helper()
	wants := collectWants(p)
	for _, d := range Run(p, analyzers) {
		if !matchWant(wants[d.Pos.Line], d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("line %d: missing diagnostic [%s] containing %q", line, w.rule, w.substr)
			}
		}
	}
}

func TestDetRandGolden(t *testing.T) {
	p := loadTestPkg(t, "ga", "npudvfs/internal/ga")
	checkGolden(t, p, []*Analyzer{DetRand})
}

// TestDetRandScopedToDeterministicPkgs mounts the same file outside the
// deterministic list and expects no detrand findings: the rule is
// package-scoped. The file's //lint:allow detrand directive correctly
// surfaces as unused there — with the rule scoped off, the exemption
// suppresses nothing.
func TestDetRandScopedToDeterministicPkgs(t *testing.T) {
	p := loadTestPkg(t, "ga", "npudvfs/internal/telemetry")
	for _, d := range Run(p, []*Analyzer{DetRand}) {
		if d.Rule == "detrand" {
			t.Errorf("detrand fired outside the deterministic packages: %s", d)
		} else if d.Rule != "directive" || !strings.Contains(d.Message, "unused directive") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestFloatEqGolden(t *testing.T) {
	p := loadTestPkg(t, "floateq", "npudvfs/internal/floateq")
	checkGolden(t, p, []*Analyzer{FloatEq})
}

// TestFloatEqSkipsStats: internal/stats hosts the tolerance helpers, so
// its exact comparisons are by design.
func TestFloatEqSkipsStats(t *testing.T) {
	p := loadTestPkg(t, "stats", "npudvfs/internal/stats")
	if diags := Run(p, []*Analyzer{FloatEq}); len(diags) != 0 {
		t.Fatalf("floateq fired inside internal/stats: %v", diags)
	}
}

func TestGoLeakGolden(t *testing.T) {
	p := loadTestPkg(t, "goleak", "npudvfs/internal/goleak")
	checkGolden(t, p, []*Analyzer{GoLeak})
}

func TestUnitCheckGolden(t *testing.T) {
	p := loadTestPkg(t, "unitcheck", "npudvfs/internal/perfmodel")
	checkGolden(t, p, []*Analyzer{UnitCheck})
}

// TestUnitCheckSignatureRuleScoped: rule (a) polices only the packages
// that were moved to units types; a numeric kernel keeping raw float64
// (profiler, stats, ga, ...) is by design.
func TestUnitCheckSignatureRuleScoped(t *testing.T) {
	const src = `package profiler

func tune(freqMHz float64) float64 { return freqMHz }
`
	p := mountSource(t, "npudvfs/internal/profiler", "tune.go", src)
	if diags := Run(p, []*Analyzer{UnitCheck}); len(diags) != 0 {
		t.Fatalf("unitcheck fired outside the units-typed packages: %v", diags)
	}
	p = mountSource(t, "npudvfs/internal/core", "tune.go", src)
	diags := Run(p, []*Analyzer{UnitCheck})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `"freqMHz"`) {
		t.Fatalf("got %v, want one raw-float64 finding for freqMHz inside a typed package", diags)
	}
}

// TestUnitCheckFreqLiteralExemptInVF: internal/vf owns the V-F table,
// so its frequency literals are the source of truth, not duplicates.
func TestUnitCheckFreqLiteralExemptInVF(t *testing.T) {
	const src = `package vf

import "npudvfs/internal/units"

var probe = units.MHz(1500)
`
	p := mountSource(t, "npudvfs/internal/vf", "probe.go", src)
	if diags := Run(p, []*Analyzer{UnitCheck}); len(diags) != 0 {
		t.Fatalf("unitcheck flagged a frequency literal inside internal/vf: %v", diags)
	}
	p = mountSource(t, "npudvfs/internal/telemetry", "probe.go", src)
	diags := Run(p, []*Analyzer{UnitCheck})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "bare frequency literal 1500") {
		t.Fatalf("got %v, want one bare-frequency-literal finding outside internal/vf", diags)
	}
}

// TestCleanPackage runs the full suite over a contract-respecting file
// mounted as a deterministic package and expects zero findings.
func TestCleanPackage(t *testing.T) {
	p := loadTestPkg(t, "clean", "npudvfs/internal/core")
	if diags := Run(p, Analyzers()); len(diags) != 0 {
		t.Fatalf("clean package produced findings: %v", diags)
	}
}

// mountSource type-checks src as a synthetic package under importPath.
func mountSource(t *testing.T, importPath, filename, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filename), []byte(src), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	ld.Mount(importPath, dir)
	p, err := ld.Load(importPath)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// TestMalformedDirective: an //lint:allow with no reason must surface
// as a "directive" finding, not silently suppress. This cannot live in
// a want-golden file — the trailing want comment would itself read as
// the directive's reason.
func TestMalformedDirective(t *testing.T) {
	p := mountSource(t, "npudvfs/internal/badlint", "bad.go", `package badlint

func f() int {
	//lint:allow floateq
	return 1
}
`)
	diags := Run(p, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "directive" || !strings.Contains(d.Message, "malformed directive") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
}

// TestAllowWrongRuleDoesNotSuppress: a directive only suppresses its
// named rule.
func TestAllowWrongRuleDoesNotSuppress(t *testing.T) {
	p := mountSource(t, "npudvfs/internal/wrongrule", "wrong.go", `package wrongrule

func g(a, b float64) bool {
	//lint:allow detrand misdirected suppression
	return a == b
}
`)
	diags := Run(p, []*Analyzer{FloatEq})
	if len(diags) != 1 || diags[0].Rule != "floateq" {
		t.Fatalf("got %v, want one floateq finding", diags)
	}
	// A misspelled rule suppresses nothing either — and says so, where
	// it used to be accepted in silence.
	p = mountSource(t, "npudvfs/internal/misspelled", "wrong.go", `package misspelled

func g(a, b float64) bool {
	//lint:allow floateqq exact sentinel comparison by design
	return a == b
}
`)
	diags = Run(p, []*Analyzer{FloatEq})
	if len(diags) != 2 || diags[0].Rule != "directive" || !strings.Contains(diags[0].Message, `unknown rule "floateqq"`) || diags[1].Rule != "floateq" {
		t.Fatalf("got %v, want an unknown-rule directive finding and the unsuppressed floateq finding", diags)
	}
}

// mountSources mounts several files as one synthetic package.
func mountSources(t *testing.T, importPath string, files map[string]string) *Package {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	ld.Mount(importPath, dir)
	p, err := ld.Load(importPath)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// TestUnusedAllowDirective: a directive that suppresses nothing is a
// "directive" finding — but only when its rule was actually selected,
// so running a rule subset never flags exemptions for the other rules.
// (mountSource, not a golden file: a want comment on the directive's
// line would be swallowed as part of the directive's reason.)
func TestUnusedAllowDirective(t *testing.T) {
	p := mountSource(t, "npudvfs/internal/staleallow", "stale.go", `package staleallow

//lint:allow floateq stale exemption; the comparison below is integral
func same(a, b int) bool {
	return a == b
}
`)
	diags := Run(p, Analyzers())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "directive" || !strings.Contains(d.Message, "unused directive") || !strings.Contains(d.Message, "floateq") {
		t.Fatalf("unexpected diagnostic: %s", d)
	}
	if diags := Run(p, []*Analyzer{DetRand}); len(diags) != 0 {
		t.Fatalf("unused floateq directive reported under -rules detrand: %v", diags)
	}
	// A directive naming a rule the registry does not have — misspelled,
	// or retired like respclose — can never be "unused" (its rule never
	// runs), so it is reported as unknown, whatever -rules selected.
	for _, rule := range []string{"detrnd", "nosuchrule", "respclose", "atomicwrite"} {
		p := mountSource(t, "npudvfs/internal/staleallow", "stale.go", "package staleallow\n\n//lint:allow "+rule+" reason\nfunc ok() int {\n\treturn 1\n}\n")
		for _, analyzers := range [][]*Analyzer{Analyzers(), {DetRand}} {
			diags := Run(p, analyzers)
			if len(diags) != 1 || diags[0].Rule != "directive" || diags[0].Pos.Line != 3 || !strings.Contains(diags[0].Message, fmt.Sprintf("unknown rule %q", rule)) {
				t.Fatalf("rule %s: got %v, want one unknown-rule directive finding on line 3", rule, diags)
			}
		}
	}
}

// TestUsedAllowDirectiveNotReported: a directive that suppresses a
// finding (same line or the line below) is not stale.
func TestUsedAllowDirectiveNotReported(t *testing.T) {
	p := mountSource(t, "npudvfs/internal/liveallow", "live.go", `package liveallow

func same(a, b float64) bool {
	//lint:allow floateq exact sentinel comparison by design
	return a == b
}
`)
	if diags := Run(p, []*Analyzer{FloatEq}); len(diags) != 0 {
		t.Fatalf("used directive produced findings: %v", diags)
	}
}

// TestAllowDirectiveScopedToFile: a directive in one file must not
// absorb a finding at the same line number of a sibling file — the
// suppression index is keyed by file AND line. Regression test: the
// collision both leaked the suppression across files and marked the
// wrong directive as used.
func TestAllowDirectiveScopedToFile(t *testing.T) {
	p := mountSources(t, "npudvfs/internal/xfile", map[string]string{
		"a.go": `package xfile

func cmp(a, b float64) bool {
	return a == b
}
`,
		"b.go": `package xfile

func ok() int {
	//lint:allow floateq directive in a sibling file at the same line number
	return 1
}
`,
	})
	diags := Run(p, []*Analyzer{FloatEq})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (the unsuppressed finding and the stale directive): %v", len(diags), diags)
	}
	var sawFinding, sawStale bool
	for _, d := range diags {
		switch {
		case d.Rule == "floateq" && strings.HasSuffix(d.Pos.Filename, "a.go"):
			sawFinding = true
		case d.Rule == "directive" && strings.HasSuffix(d.Pos.Filename, "b.go") && strings.Contains(d.Message, "unused directive"):
			sawStale = true
		}
	}
	if !sawFinding || !sawStale {
		t.Fatalf("cross-file suppression leaked: %v", diags)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	for _, rules := range []string{"", "all"} {
		as, err := SelectAnalyzers(rules)
		if err != nil || len(as) != len(Analyzers()) {
			t.Fatalf("SelectAnalyzers(%q) = %d analyzers, err %v", rules, len(as), err)
		}
	}
	as, err := SelectAnalyzers("detrand,floateq")
	if err != nil {
		t.Fatalf("SelectAnalyzers subset: %v", err)
	}
	if len(as) != 2 || as[0].Name != "detrand" || as[1].Name != "floateq" {
		t.Fatalf("SelectAnalyzers subset = %v", as)
	}
	if _, err := SelectAnalyzers("bogus"); err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Fatalf("SelectAnalyzers(bogus) err = %v, want unknown-rule error", err)
	}
	if _, err := SelectAnalyzers(","); err == nil {
		t.Fatalf("SelectAnalyzers(\",\") selected nothing but returned no error")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "internal/ga/ga.go", Line: 42},
		Rule:    "detrand",
		Message: "math/rand.Intn uses the process-global RNG",
	}
	got := d.String()
	want := "internal/ga/ga.go:42: [detrand] math/rand.Intn uses the process-global RNG"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
