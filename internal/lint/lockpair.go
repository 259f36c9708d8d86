package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockPair checks, in every package, that every Lock/RLock has an
// Unlock/RUnlock of the same receiver somewhere in the same function:
// direct, deferred, or inside a nested literal (`defer func() {
// mu.Unlock() }()`). An acquire belongs to the innermost function,
// declared or literal, that contains it. This is not a path-sensitive
// prover: a lock released in another function is almost always a bug,
// or a hand-off worth an explicit //lint:allow lockpair <reason>.
//
// Lock ordering and blocking under a lock are not linted: every mutex
// in the module guards a leaf critical section, and tests hold the two
// places where that matters (DESIGN.md §9, "What is enforced by
// construction instead").
var LockPair = &Analyzer{
	Name: "lockpair",
	Doc:  "every Lock/RLock released in its function",
	Run:  runLockPair,
}

func runLockPair(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockPairs(p, fn.Body, report)
				}
			case *ast.FuncLit:
				checkLockPairs(p, fn.Body, report)
			}
			return true
		})
	}
}

// checkLockPairs checks one function body. Releases count anywhere in
// it, nested literals included; acquires only outside nested literals,
// which runLockPair visits on their own.
func checkLockPairs(p *Package, body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	type acquire struct {
		pos          token.Pos
		recv, method string
	}
	var acquires []acquire
	released := map[string]bool{} // receiver + "." + release method
	var walk func(n ast.Node, top bool) bool
	walk = func(n ast.Node, top bool) bool {
		if lit, ok := n.(*ast.FuncLit); ok && top {
			ast.Inspect(lit.Body, func(m ast.Node) bool { return walk(m, false) })
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isSyncMethod(calleeFunc(p, call), sel.Sel.Name) {
			return true
		}
		switch recv := renderExpr(p, sel.X); sel.Sel.Name {
		case "Unlock", "RUnlock":
			released[recv+"."+sel.Sel.Name] = true
		case "Lock", "RLock":
			if top {
				acquires = append(acquires, acquire{call.Pos(), recv, sel.Sel.Name})
			}
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool { return walk(n, true) })
	for _, a := range acquires {
		release := strings.Replace(a.method, "Lock", "Unlock", 1)
		if !released[a.recv+"."+release] {
			report(a.pos, "%s.%s() has no matching %s.%s() in this function; release on every path (usually defer %s.%s()) or justify with %s lockpair <reason>",
				a.recv, a.method, a.recv, release, a.recv, release, allowPrefix)
		}
	}
}
