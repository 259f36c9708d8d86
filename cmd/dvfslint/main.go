// Command dvfslint runs the repository's determinism & concurrency
// analyzer suite (internal/lint) over every package in the module and
// prints "file:line: [rule] message" for each unsuppressed finding.
//
// Usage:
//
//	dvfslint [-rules detrand,errsink] [-dir path] [-format text|github] [-list] [packages]
//
// The optional packages argument is accepted for familiarity ("./...")
// but the tool always analyzes the whole module containing -dir (or
// the working directory). -format selects plain text (default) or
// GitHub ::error workflow commands for inline PR annotations.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors. Suppress a
// finding with an in-tree justification:
//
//	//lint:allow <rule> <reason>
//
// on the flagged line or the line above (see DESIGN.md §9). -rules list
// (or -list) prints every registered rule with its one-line contract
// and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"npudvfs/internal/lint"
)

// rulesListing renders one line per registered analyzer, in the
// canonical execution order: the name, then its one-line contract.
func rulesListing() string {
	var b strings.Builder
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(&b, "%-11s %s\n", a.Name, a.Doc)
	}
	return b.String()
}

func main() {
	var (
		rules  = flag.String("rules", "all", "comma-separated rule subset to run (e.g. detrand,errsink), all, or list to print the registered rules")
		dir    = flag.String("dir", ".", "directory inside the module to analyze")
		list   = flag.Bool("list", false, "list available rules and exit")
		format = flag.String("format", "text", "output format: text or github")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dvfslint [-rules r1,r2] [-dir path] [-format text|github] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list || *rules == "list" {
		fmt.Print(rulesListing())
		return
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(os.Stderr, "dvfslint: unknown -format %q (want text or github)\n", *format)
		os.Exit(2)
	}
	analyzers, err := lint.SelectAnalyzers(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.RunAll(root, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Report paths relative to the module root for stable output.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	if *format == "github" {
		if err := lint.EncodeGitHub(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dvfslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
