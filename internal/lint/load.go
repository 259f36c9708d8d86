package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// This file is the stdlib-only package loader behind dvfslint. It
// walks the module, parses every non-test file with go/parser, and
// type-checks with go/types. Imports inside the module are resolved by
// the loader itself (recursively, with a cache); everything else is
// delegated to the compiler's source importer, so the tool needs no
// third-party machinery and works offline.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path ("npudvfs/internal/ga").
	ImportPath string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Fset maps AST positions back to file:line.
	Fset *token.FileSet
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's fact tables for the files.
	Info *types.Info
	// Facts is the Loader-wide interprocedural fact store (see
	// facts.go); summaries of this package's functions and of every
	// dependency are present by the time analyzers run.
	Facts *Facts
}

// sharedFset and stdImporter are process-wide so repeated Loader
// instances (golden tests + the repo gate in one test binary) reuse the
// source importer's type-checked stdlib instead of re-checking it.
var (
	sharedFset  = token.NewFileSet()
	stdOnce     sync.Once
	stdImporter types.ImporterFrom
)

func sourceImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		stdImporter = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return stdImporter
}

// Loader loads and type-checks packages of a single module.
type Loader struct {
	// Root is the absolute module root (the directory with go.mod).
	Root string
	// Module is the module path from go.mod.
	Module string

	mu    sync.Mutex
	pkgs  map[string]*Package // by import path
	facts *Facts              // interprocedural summaries, filled at load time
	// extra maps import paths to directories outside the normal
	// module layout (used by tests to mount testdata packages under
	// synthetic import paths).
	extra map[string]string
}

// NewLoader returns a Loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{Root: root, Module: mod, pkgs: map[string]*Package{}, extra: map[string]string{}, facts: NewFacts()}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Mount registers dir as the source directory for importPath, letting
// tests load testdata packages under synthetic module-internal paths.
func (l *Loader) Mount(importPath, dir string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.extra[importPath] = dir
}

// LoadAll loads every package under the module root, skipping testdata
// and hidden directories, and returns them sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := l.Load(l.dirImportPath(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// moduleDirs returns every package directory under the module root,
// sorted, skipping testdata and hidden directories.
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// dirImportPath maps a directory under the module root to its import
// path.
func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// Load loads (or returns the cached) package for an import path inside
// the module or mounted via Mount.
func (l *Loader) Load(importPath string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[importPath]; ok {
		l.mu.Unlock()
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle or failed load for %s", importPath)
		}
		return p, nil
	}
	l.pkgs[importPath] = nil // cycle guard
	dir, mounted := l.extra[importPath]
	l.mu.Unlock()

	if !mounted {
		if importPath == l.Module {
			dir = l.Root
		} else if rest, ok := strings.CutPrefix(importPath, l.Module+"/"); ok {
			dir = filepath.Join(l.Root, filepath.FromSlash(rest))
		} else {
			return nil, fmt.Errorf("lint: %s is not inside module %s", importPath, l.Module)
		}
	}
	p, err := l.check(importPath, dir)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.pkgs[importPath] = p
	l.mu.Unlock()
	return p, nil
}

// check parses and type-checks the non-test files of one directory.
func (l *Loader) check(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: &loaderImporter{l},
		Error:    func(error) {}, // collect the first hard error below
	}
	pkg, err := conf.Check(importPath, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	p := &Package{ImportPath: importPath, Dir: dir, Files: files, Fset: sharedFset, Pkg: pkg, Info: info, Facts: l.facts}
	// Summarize this package's functions immediately: type-checking a
	// package forces its module-internal imports through the Loader
	// first, so facts flow bottom-up and are complete before any
	// dependent — or this package's own analyzers — consume them.
	computePackageFacts(p, l.facts)
	return p, nil
}

// loaderImporter routes module-internal imports back through the
// Loader and everything else to the compiler's source importer.
type loaderImporter struct{ l *Loader }

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.l.Root, 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == li.l.Module || strings.HasPrefix(path, li.l.Module+"/") {
		p, err := li.l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	li.l.mu.Lock()
	if mounted, ok := li.l.extra[path]; ok {
		li.l.mu.Unlock()
		_ = mounted
		p, err := li.l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	li.l.mu.Unlock()
	// The compiler's source importer is process-wide and not safe for
	// concurrent use; serialize calls from Loaders on other goroutines.
	srcImportMu.Lock()
	defer srcImportMu.Unlock()
	return sourceImporter().ImportFrom(path, dir, mode)
}

// srcImportMu serializes calls into the shared source importer.
var srcImportMu sync.Mutex
