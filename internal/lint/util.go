package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
	"strings"
)

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for calls through function values, conversions, and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or
// "" for method expressions on unnamed types.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvNamed returns the named type of fn's receiver (dereferenced), or
// nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isSyncMethod reports whether fn is a method named name on
// sync.Mutex or sync.RWMutex.
func isSyncMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	tn := named.Obj().Name()
	return tn == "Mutex" || tn == "RWMutex"
}

// renderExpr prints an expression as source text ("s.mu").
func renderExpr(p *Package, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInternalPkg reports whether the import path lives under the
// module's internal tree.
func isInternalPkg(importPath string) bool {
	return strings.Contains(importPath, "/internal/") || strings.HasPrefix(importPath, "internal/")
}

// pkgBase returns the final path element of an import path.
func pkgBase(importPath string) string {
	if i := strings.LastIndexByte(importPath, '/'); i >= 0 {
		return importPath[i+1:]
	}
	return importPath
}
