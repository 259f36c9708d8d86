// Package lint is dvfslint: a project-specific static-analysis suite,
// built entirely on the stdlib go/ast + go/types toolchain, that
// mechanically enforces the repository's determinism, concurrency and
// dimensional-safety contracts (DESIGN.md §9). It ships six
// analyzers:
//
//	detrand     — no process-global math/rand or wall-clock reads in
//	              deterministic packages
//	floateq     — no float ==/!= outside internal/stats tolerance helpers
//	goleak      — every `go` statement must be tracked by a WaitGroup, a
//	              result channel, or internal/pool
//	unitcheck   — no raw-float64 physical quantities in the typed
//	              packages, no cross-unit arithmetic laundered through
//	              float64, no bare frequency literals outside internal/vf
//	errsink     — no discarded errors with os/io/net provenance in the
//	              serving/cluster packages (interprocedural: a helper
//	              wrapping os.Rename taints its callers)
//	lockpair    — every mutex Lock/RLock pairs with an Unlock/RUnlock in
//	              the same function
//
// errsink is interprocedural: it consumes per-function summaries from
// a fact store filled bottom-up along the import DAG at load time
// (facts.go).
//
// Invariants that one function can hold by construction are not
// linted: jobstore's only disk write is writeAtomic, client's only
// *http.Response lives in roundTrip, /metrics is a declare-once
// registry, and every mutex guards a leaf critical section, so there
// is no lock order to check (DESIGN.md §9, "What is enforced by
// construction instead").
//
// A diagnostic is suppressed only by an explicit justification on the
// flagged line (or the line above):
//
//	//lint:allow <rule> <reason>
//
// so every exemption is reviewable in-tree. A directive that suppresses
// nothing is itself a finding: stale exemptions otherwise outlive the
// code they excused and silently blanket future violations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [rule] message".
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Rule, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the rule name used in output and //lint:allow directives.
	Name string
	// Doc is a one-line description for -list.
	Doc string
	// Run reports findings via report; suppression and sorting are the
	// engine's job.
	Run func(p *Package, report func(pos token.Pos, format string, args ...any))
}

// Analyzers returns the full suite in canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, FloatEq, GoLeak, UnitCheck, ErrSink, LockPair}
}

// registered reports whether name is a rule of the full suite.
func registered(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// SelectAnalyzers resolves a comma-separated rule list ("" or "all"
// selects the full suite) against the registry.
func SelectAnalyzers(rules string) ([]*Analyzer, error) {
	all := Analyzers()
	rules = strings.TrimSpace(rules)
	if rules == "" || rules == "all" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, r := range strings.Split(rules, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		a, ok := byName[r]
		if !ok {
			names := make([]string, len(all))
			for i, a := range all {
				names[i] = a.Name
			}
			return nil, fmt.Errorf("lint: unknown rule %q (available: %s)", r, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no rules selected")
	}
	return out, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	rule   string
	reason string
	file   string
	line   int
	pos    token.Pos
}

const allowPrefix = "//lint:allow"

// parseAllows extracts every //lint:allow directive in the file, and
// reports malformed ones (a directive with no reason silently
// suppressing nothing is worse than an error) and ones naming a rule
// that is not registered. The name is checked against the full
// registry, not the analyzers selected for this run: a misspelled or
// retired rule never runs, so its directive could never be "unused"
// and would excuse nothing, silently.
func parseAllows(p *Package, f *ast.File, report func(pos token.Pos, format string, args ...any)) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, allowPrefix)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(c.Pos(), "malformed directive %q: want %s <rule> <reason>", c.Text, allowPrefix)
				continue
			}
			if !registered(fields[0]) {
				report(c.Pos(), "unknown rule %q in %s directive: it suppresses nothing — fix the name or remove it (dvfslint -list prints the rules)", fields[0], allowPrefix)
				continue
			}
			cpos := p.Fset.Position(c.Pos())
			out = append(out, allowDirective{
				rule:   fields[0],
				reason: strings.Join(fields[1:], " "),
				file:   cpos.Filename,
				line:   cpos.Line,
				pos:    c.Pos(),
			})
		}
	}
	return out
}

// Run executes the analyzers over the package, applies //lint:allow
// suppression, and returns the surviving diagnostics sorted by
// position.
func Run(p *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	collect := func(rule string) func(pos token.Pos, format string, args ...any) {
		return func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:     p.Fset.Position(pos),
				Rule:    rule,
				Message: fmt.Sprintf(format, args...),
			})
		}
	}
	// Allow directives apply per file — the index is keyed by filename
	// AND line, so a directive in one file can never absorb (and mark
	// itself used against) a finding at the same line number of a
	// sibling file. Malformed ones, and ones naming a rule the
	// registry does not have, are findings of the pseudo-rule
	// "directive". Each directive tracks whether it suppressed
	// anything: a no-op exemption is itself a finding.
	type fileLine struct {
		file string
		line int
	}
	type allowState struct {
		d    allowDirective
		used bool
	}
	allowed := map[string]map[fileLine]*allowState{} // rule -> file:line -> state
	var states []*allowState                         // in parse order, for deterministic reporting
	for _, f := range p.Files {
		for _, a := range parseAllows(p, f, collect("directive")) {
			m := allowed[a.rule]
			if m == nil {
				m = map[fileLine]*allowState{}
				allowed[a.rule] = m
			}
			key := fileLine{a.file, a.line}
			if m[key] == nil {
				st := &allowState{d: a}
				m[key] = st
				states = append(states, st)
			}
		}
	}
	for _, a := range analyzers {
		a.Run(p, collect(a.Name))
	}
	out := diags[:0]
	for _, d := range diags {
		// A directive suppresses a diagnostic on its own line or the
		// line directly below (comment-above style), in the same file.
		if m := allowed[d.Rule]; m != nil {
			if st := m[fileLine{d.Pos.Filename, d.Pos.Line}]; st != nil {
				st.used = true
				continue
			}
			if st := m[fileLine{d.Pos.Filename, d.Pos.Line - 1}]; st != nil {
				st.used = true
				continue
			}
		}
		out = append(out, d)
	}
	// An unused directive is reported only when its rule actually ran
	// this invocation — a floateq exemption is not stale just because
	// the caller selected -rules detrand.
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	for _, st := range states {
		if !st.used && selected[st.d.rule] {
			out = append(out, Diagnostic{
				Pos:  p.Fset.Position(st.d.pos),
				Rule: "directive",
				Message: fmt.Sprintf("unused directive %s %s %s: no [%s] finding on this line or the one below — remove the stale exemption",
					allowPrefix, st.d.rule, st.d.reason, st.d.rule),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// RunAll loads every package under root and runs the analyzers over
// each in import-path order: the concatenation of Run over LoadAll's
// packages.
func RunAll(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	ld, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := ld.LoadAll()
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, p := range pkgs {
		out = append(out, Run(p, analyzers)...)
	}
	return out, nil
}
