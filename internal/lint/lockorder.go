package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder is the interprocedural successor to lockpair's pairing
// check: instead of asking "is every Lock matched", it asks "can the
// locks this module takes ever deadlock". Two rules, both over the fact
// store:
//
//  1. Lock-order cycles. Every function's sweep contributes
//     held→acquired edges (directly, through module-internal callees
//     via their AllAcquires closure, and through callbacks via the
//     callee's LockParamCalls fact) to a global lock-acquisition graph,
//     with lock identity the declaring struct field path
//     ("server.Server.mu"). An edge whose reverse is reachable in the
//     graph is a potential deadlock, reported at the acquisition site
//     in the package under analysis.
//
//  2. Blocking while holding. A channel send/receive, blocking select,
//     Wait, sleep, network call, or file/store I/O — direct or through
//     any reachable callee — while a mutex is held stalls every other
//     goroutine contending for that lock. By-design sites (jobstore's
//     persist-under-lock contract) carry //lint:allow lockorder audits.
//
// The rule runs over the packages whose locks actually guard shared
// serving state: server, cluster/jobstore, cluster/ring, pool, ga.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no lock-order cycles across the module, no blocking ops while holding a serving-path mutex",
	Run:  runLockOrder,
}

// lockOrderPkgs are the package basenames in scope: the ones holding
// locks that guard shared serving/search state.
var lockOrderPkgs = map[string]bool{
	"server":   true,
	"jobstore": true,
	"ring":     true,
	"pool":     true,
	"ga":       true,
}

func runLockOrder(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if !isInternalPkg(p.ImportPath) || !lockOrderPkgs[pkgBase(p.ImportPath)] {
		return
	}
	store := p.Facts
	graph := lockGraph(p, store)

	// posEdge is one lock-order edge observed at a position in this
	// package; cycle findings anchor to these.
	type posEdge struct {
		held, acq string
		via       string // "" for a direct acquisition
		pos       token.Pos
	}
	var edges []posEdge
	type dedupKey struct {
		pos  token.Pos
		a, b string
	}
	seen := map[dedupKey]bool{}
	addEdge := func(held, acq, via string, pos token.Pos) {
		k := dedupKey{pos, held, acq}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, posEdge{held: held, acq: acq, via: via, pos: pos})
	}

	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sweepLocks(p, fd, store, func(ev lockEvent) {
				switch ev.kind {
				case evAcquire:
					for _, h := range ev.held {
						if h.id == ev.acq {
							if h.rlock && ev.acqR {
								continue // RLock twice is legal (though fragile)
							}
							report(ev.pos, "%s acquired while already held — self-deadlock", ev.acq)
							continue
						}
						addEdge(h.id, ev.acq, "", ev.pos)
					}
				case evBlock:
					for _, h := range ev.held {
						report(ev.pos, "%s while holding %s — the critical section can stall every contender; shrink it or audit with //lint:allow lockorder", ev.what, h.id)
					}
				case evCall:
					if len(ev.held) == 0 {
						return
					}
					cf := store.Lookup(ev.callee)
					name := calleeDisplay(ev.callee)
					for _, h := range ev.held {
						for _, acq := range cf.AllAcquires {
							if acq == h.id {
								report(ev.pos, "call to %s may acquire %s, which is already held — self-deadlock", name, acq)
								continue
							}
							addEdge(h.id, acq, name, ev.pos)
						}
						if len(cf.Blocks) > 0 {
							what := strings.Join(cf.Blocks, ", ")
							k := dedupKey{ev.pos, h.id, what}
							if !seen[k] {
								seen[k] = true
								report(ev.pos, "call to %s may perform %s while holding %s; move it out of the critical section or audit with //lint:allow lockorder", name, what, h.id)
							}
						}
					}
				case evPassFunc:
					cf := store.Lookup(ev.callee)
					heldIDs := cf.LockParamCalls[ev.argIdx]
					if len(heldIDs) == 0 {
						return
					}
					acqs := funcValueAcquires(p, ev.arg, store)
					for _, h := range heldIDs {
						for _, acq := range acqs {
							if acq == h {
								report(ev.pos, "callback passed to %s acquires %s, which %s holds when invoking it — self-deadlock", calleeDisplay(ev.callee), acq, calleeDisplay(ev.callee))
								continue
							}
							addEdge(h, acq, calleeDisplay(ev.callee)+" callback", ev.pos)
						}
					}
				}
			})
		}
	}

	for _, e := range edges {
		if !lockReachable(graph, e.acq, e.held) {
			continue
		}
		via := ""
		if e.via != "" {
			via = " (via " + e.via + ")"
		}
		report(e.pos, "acquiring %s while holding %s%s forms a lock-order cycle: elsewhere in the module %s is held when %s is acquired — potential deadlock",
			e.acq, e.held, via, e.acq, e.held)
	}
}

// lockGraph assembles the module-wide lock-acquisition graph from the
// facts of this package and every transitive module-internal
// dependency. Enumeration goes through the type-checker's import graph
// and sorted package scopes — never the shared fact store, whose
// contents depend on which other packages the Loader has seen.
func lockGraph(p *Package, store *Facts) map[string]map[string]bool {
	graph := map[string]map[string]bool{}
	add := func(u, v string) {
		if u == v {
			return
		}
		m := graph[u]
		if m == nil {
			m = map[string]bool{}
			graph[u] = m
		}
		m[v] = true
	}
	for _, fn := range moduleFuncs(p) {
		fact := store.Lookup(fn)
		for _, e := range fact.HeldEdges {
			add(e[0], e[1])
		}
		for _, hc := range fact.HeldCallees {
			for _, acq := range store.Lookup(hc.Callee).AllAcquires {
				add(hc.Held, acq)
			}
		}
	}
	return graph
}

// lockReachable reports whether `to` is reachable from `from` in the
// lock graph.
func lockReachable(graph map[string]map[string]bool, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range graph[u] {
			if v == to {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// moduleFuncs enumerates the functions of p's package and every
// transitive module-internal import, deterministically: packages in
// import-DAG discovery order over sorted Imports(), names in sorted
// scope order, methods in declaration order.
func moduleFuncs(p *Package) []*types.Func {
	var pkgs []*types.Package
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		path := tp.Path()
		if path != p.Module && !strings.HasPrefix(path, p.Module+"/") {
			return
		}
		seen[tp] = true
		pkgs = append(pkgs, tp)
		imps := tp.Imports()
		for _, im := range imps {
			visit(im)
		}
	}
	visit(p.Pkg)
	var out []*types.Func
	for _, tp := range pkgs {
		scope := tp.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				out = append(out, obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					out = append(out, named.Method(i))
				}
			}
		}
	}
	return out
}

// funcValueAcquires returns the lock IDs a function-valued argument can
// acquire: for a function literal, its direct acquisitions plus the
// AllAcquires of module-internal functions it calls; for a function
// reference, the referent's AllAcquires fact.
func funcValueAcquires(p *Package, arg ast.Expr, store *Facts) []string {
	switch x := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		var out []string
		ast.Inspect(x.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if isSyncMethod(fn, "Lock") || isSyncMethod(fn, "RLock") {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id := lockID(p, sel.X); id != "" {
						out = addString(out, id)
					}
				}
				return true
			}
			if fn != nil && isModuleFunc(p, fn) {
				for _, acq := range store.Lookup(fn).AllAcquires {
					out = addString(out, acq)
				}
			}
			return true
		})
		return out
	case *ast.Ident:
		if fn, ok := p.Info.Uses[x].(*types.Func); ok {
			return store.Lookup(fn).AllAcquires
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[x.Sel].(*types.Func); ok {
			return store.Lookup(fn).AllAcquires
		}
	}
	return nil
}
