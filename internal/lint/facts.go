package lint

import (
	"go/ast"
	"go/types"
	"sync"
)

// This file is the interprocedural fact store behind errsink (and,
// through lockfacts.go, lockorder). Facts are
// per-function summaries keyed by *types.Func identity — valid because
// the Loader caches every package against one shared FileSet, so a
// function object seen by a dependent package is the same object its
// defining package summarized. Facts are computed at package load time
// (Loader.check), and type-checking a package loads its imports first,
// so the load order doubles as the bottom-up fact-propagation order: by
// the time a package analyzes, every module-internal callee already has
// its summary in the store. Within one package, mutually recursive
// helpers are handled by iterating to a fixpoint.

// FuncFact is the interprocedural summary of one function.
type FuncFact struct {
	// DerivesIOError: the function has an error result whose value can
	// originate from an os/io/net operation (directly or through
	// callees). Consumed by errsink: discarding such an error hides a
	// real I/O failure.
	DerivesIOError bool

	// --- lock facts (lockfacts.go) ---

	// Callees are the module-internal functions this one calls
	// statically (including dynamic calls through unexported func-typed
	// struct fields, resolved in the field's declaring package). The
	// fixpoint propagation of AllAcquires and Blocks runs over this
	// edge list.
	Callees []*types.Func
	// Acquires are the lock IDs ("pkg.Type.field") the function
	// acquires directly; AllAcquires closes the set over Callees.
	Acquires    []string
	AllAcquires []string
	// Blocks are the blocking-operation kinds (channel send/recv, Wait,
	// sleep, network, file I/O) the function can reach, closed over
	// Callees. Consumed by lockorder's held-lock blocking rule.
	Blocks []string
	// HeldEdges are direct lock-order edges observed in the body:
	// [held, acquired] pairs. HeldCallees are module-internal calls made
	// while holding a lock; the analyzer expands them against the
	// callee's AllAcquires to complete the global graph.
	HeldEdges   [][2]string
	HeldCallees []HeldCallee
	// LockParamCalls maps func-typed parameter indices to the lock IDs
	// held when the function invokes that parameter, so a callback
	// passed from another package contributes its acquisitions to the
	// graph at the pass site.
	LockParamCalls map[int][]string
}

// Facts is a concurrency-safe store of function summaries shared by all
// packages of one Loader.
type Facts struct {
	mu sync.RWMutex
	m  map[*types.Func]FuncFact
	// fields maps unexported func-typed struct fields (fieldFuncKey) to
	// the functions assigned to them in their declaring package, for
	// resolving dynamic calls like jobstore's persist/unlink hooks.
	fields map[string][]*types.Func
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: map[*types.Func]FuncFact{}, fields: map[string][]*types.Func{}}
}

// Lookup returns the summary for fn (zero value when unknown or when
// the store is nil, so analyzers degrade to intraprocedural).
func (fs *Facts) Lookup(fn *types.Func) FuncFact {
	if fs == nil || fn == nil {
		return FuncFact{}
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.m[fn]
}

func (fs *Facts) put(fn *types.Func, f FuncFact) {
	fs.mu.Lock()
	fs.m[fn] = f
	fs.mu.Unlock()
}

// ioErrPkgs are the stdlib packages whose returned errors count as I/O
// provenance for errsink. fmt is deliberately absent: Fprintf-style
// errors on an http.ResponseWriter are ubiquitous and have no recovery
// path, so including them would drown the signal.
var ioErrPkgs = map[string]bool{
	"os":       true,
	"io":       true,
	"io/fs":    true,
	"net":      true,
	"net/http": true,
	"bufio":    true,
}

// ioErrorSource reports whether fn's errors carry I/O provenance:
// either it is declared in an I/O stdlib package, it is a JSON
// stream codec (wrapping an underlying reader/writer), or a
// module-internal summary says so.
func ioErrorSource(fn *types.Func, store *Facts) bool {
	if fn == nil {
		return false
	}
	path := funcPkgPath(fn)
	if ioErrPkgs[path] {
		return true
	}
	if path == "encoding/json" {
		if named := recvNamed(fn); named != nil {
			tn := named.Obj().Name()
			if (tn == "Encoder" && fn.Name() == "Encode") || (tn == "Decoder" && fn.Name() == "Decode") {
				return true
			}
		}
	}
	return store.Lookup(fn).DerivesIOError
}

// hasErrorResult reports whether sig has at least one result of type
// error, returning the last matching index.
func hasErrorResult(sig *types.Signature) (int, bool) {
	idx, ok := -1, false
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			idx, ok = i, true
		}
	}
	return idx, ok
}

var errorType = types.Universe.Lookup("error").Type()

// declFn pairs a declared function with its type object for the fact
// passes.
type declFn struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// computePackageFacts summarizes every function declared in p and
// publishes the summaries to store. DerivesIOError iterates to a
// fixpoint so in-package helper chains and mutual recursion converge.
func computePackageFacts(p *Package, store *Facts) {
	var fns []declFn
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns = append(fns, declFn{fn, fd})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, df := range fns {
			fact := store.Lookup(df.fn)
			if !fact.DerivesIOError && derivesIOError(p, df.fn, df.decl, store) {
				fact.DerivesIOError = true
				changed = true
			}
			store.put(df.fn, fact)
		}
	}
	computeLockFacts(p, fns, store)
}

// derivesIOError reports whether fn (with body decl) has an error
// result and contains at least one call to an I/O-deriving callee whose
// error is not locally discarded — i.e. the error can plausibly flow
// out of fn.
func derivesIOError(p *Package, fn *types.Func, decl *ast.FuncDecl, store *Facts) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if _, ok := hasErrorResult(sig); !ok {
		return false
	}
	discarded := discardedCalls(decl.Body)
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || discarded[call] {
			return true
		}
		callee := calleeFunc(p, call)
		if callee == nil || callee == fn {
			return true
		}
		if csig, ok := callee.Type().(*types.Signature); ok {
			if _, hasErr := hasErrorResult(csig); hasErr && ioErrorSource(callee, store) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// discardedCalls collects call expressions whose error results are
// locally dropped inside body: bare statement calls, defers/go
// statements, and assignments where every error-typed position is the
// blank identifier. A function that itself swallows an I/O error does
// not export I/O provenance (errsink flags the swallow at that site
// instead).
func discardedCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				out[call] = true
			}
		case *ast.DeferStmt:
			out[s.Call] = true
		case *ast.GoStmt:
			out[s.Call] = true
		case *ast.AssignStmt:
			if call, ok := singleCallRHS(s); ok && allBlank(s.Lhs) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// singleCallRHS returns the call when s is `lhs... = f(...)` with one
// RHS expression that is a call.
func singleCallRHS(s *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(s.Rhs) != 1 {
		return nil, false
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	return call, ok
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// paramObjects maps fn's parameter objects (receiver included at index
// -1) so body scans can resolve ident uses back to parameter indices.
func paramObjects(p *Package, decl *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	add := func(fl *ast.FieldList, start int) int {
		if fl == nil {
			return start
		}
		i := start
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					out[obj] = i
				}
				i++
			}
		}
		return i
	}
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					out[obj] = -1
				}
			}
		}
	}
	add(decl.Type.Params, 0)
	return out
}
