package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// This file is the per-package result cache behind `make lint`'s warm
// path. A package's cache key is a content hash over everything that
// can change its diagnostics: the engine version, the module root (the
// cached positions are absolute paths), the selected rule set, the
// package's own source bytes, and — because analysis is
// interprocedural — the keys of every module-internal dependency, so
// editing a helper in one package invalidates exactly its dependents
// and nothing else. A hit skips the analysis pass only: stale
// dependents still need the package's types and facts, which the
// driver recomputes on demand (stdlib go/types has no export-data
// serialization worth hand-rolling here).
//
// Cache failures of any kind (unreadable dir, torn file, version skew)
// degrade silently to a cold run — the cache can never change output,
// only skip work.

// cacheVersion invalidates every entry when the engine or an analyzer
// changes behavior. Bump it in any PR that touches analyzer logic.
const cacheVersion = "dvfslint-v4"

// cacheKey computes the content hash for one package. depKeys must
// hold the keys of the package's module-internal imports (any order;
// they are sorted here).
func cacheKey(root, importPath string, ruleNames []string, goFiles []string, depKeys []string) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00", cacheVersion, root, importPath)
	rules := append([]string(nil), ruleNames...)
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(h, "rule:%s\x00", r)
	}
	for _, f := range goFiles {
		fh, err := hashFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "file:%s:%s\x00", filepath.Base(f), fh)
	}
	deps := append([]string(nil), depKeys...)
	sort.Strings(deps)
	for _, d := range deps {
		fmt.Fprintf(h, "dep:%s\x00", d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// listGoFiles returns the sorted non-test .go files of dir (the same
// set parseDir loads).
func listGoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && filepath.Ext(name) == ".go" && !isTestFile(name) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

func isTestFile(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// cacheGet loads the cached diagnostics for key; ok is false on any
// miss or read/decode failure.
func cacheGet(dir, key string) ([]Diagnostic, bool) {
	if dir == "" {
		return nil, false
	}
	raw, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var diags []Diagnostic
	if err := json.Unmarshal(raw, &diags); err != nil {
		return nil, false
	}
	return diags, true
}

// cachePut stores diags under key, best-effort: errors are dropped (a
// cache that can't be written is just a cache that never warms).
func cachePut(dir, key string, diags []Diagnostic) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	raw, err := json.Marshal(diags)
	if err != nil {
		return
	}
	path := filepath.Join(dir, key+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return
	}
	// Best-effort commit: a failed rename just leaves the entry cold.
	_ = os.Rename(tmp, path)
}
