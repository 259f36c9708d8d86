package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes the lock facts behind lockorder: per-function
// callee edges (which module-internal functions a function calls) and
// lock summaries (which locks it acquires, what it does while holding
// them, and whether it can block). Like the errsink facts they are
// computed eagerly at load time inside computePackageFacts, so the
// Loader's imports-first load order doubles as the bottom-up
// propagation order and an intra-package fixpoint handles mutual
// recursion.

// HeldCallee records a module-internal call made while a lock is held,
// position-free (positions only matter in the package under analysis;
// dependency facts contribute graph edges, not diagnostics).
type HeldCallee struct {
	Held   string
	Callee *types.Func
}

// fieldFuncKey identifies an unexported func-typed struct field by
// "<pkgpath>.<Type>.<field>". Unexported fields can only be assigned
// from their declaring package, so by the time a dependent package
// consults the mapping it is complete — and because assignment sites
// live in exactly one package, the mapping is schedule-independent.
func fieldFuncKey(named *types.Named, f *types.Var) string {
	return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
}

func (fs *Facts) addFieldFunc(key string, fn *types.Func) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, have := range fs.fields[key] {
		if have == fn {
			return
		}
	}
	fs.fields[key] = append(fs.fields[key], fn)
}

// fieldFuncs returns the functions assigned to the field key, in
// assignment-site order (deterministic: one declaring package, files in
// sorted order).
func (fs *Facts) fieldFuncs(key string) []*types.Func {
	if fs == nil {
		return nil
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.fields[key]
}

// isModuleFunc reports whether fn is declared inside the module being
// analyzed (facts exist only for those).
func isModuleFunc(p *Package, fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || p.Module == "" {
		return false
	}
	path := fn.Pkg().Path()
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// fieldOwner resolves a field selection to the named type that declares
// the field, walking the embedding chain, so a promoted access like
// f.mu on FS{*Memory} attributes to Memory. Returns (nil, nil) for
// non-field selections.
func fieldOwner(p *Package, x *ast.SelectorExpr) (*types.Named, *types.Var) {
	sel, ok := p.Info.Selections[x]
	if !ok || sel.Kind() != types.FieldVal {
		return nil, nil
	}
	t := sel.Recv()
	idx := sel.Index()
	for k, i := range idx {
		st, ok := derefStruct(t)
		if !ok {
			return nil, nil
		}
		if i >= st.NumFields() {
			return nil, nil
		}
		f := st.Field(i)
		if k == len(idx)-1 {
			named := derefNamed(t)
			if named == nil || f.Pkg() == nil {
				return nil, nil
			}
			return named, f
		}
		t = f.Type()
	}
	return nil, nil
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	u := t.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	st, ok := u.(*types.Struct)
	return st, ok
}

// lockID names a mutex for the global lock graph: struct fields as
// "<pkg>.<Type>.<field>" (identity by declaring type, so every access
// path to the same field agrees) and package-level vars as
// "<pkg>.<var>". Function-local mutexes return "" and are ignored — a
// local lock cannot participate in a cross-function cycle.
func lockID(p *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return pkgBase(v.Pkg().Path()) + "." + v.Name()
	case *ast.SelectorExpr:
		if named, f := fieldOwner(p, x); named != nil {
			return pkgBase(f.Pkg().Path()) + "." + named.Obj().Name() + "." + f.Name()
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
					return pkgBase(v.Pkg().Path()) + "." + v.Name()
				}
			}
		}
	}
	return ""
}

// recordFieldFuncs scans one function for assignments of function
// references to unexported func-typed struct fields (the jobstore
// persist/unlink hook pattern) and records them in the store, so
// dynamic calls through those fields resolve to concrete callees.
func recordFieldFuncs(p *Package, decl *ast.FuncDecl, store *Facts) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			named, f := fieldOwner(p, sel)
			if named == nil || f.Exported() {
				continue
			}
			if _, isFunc := f.Type().Underlying().(*types.Signature); !isFunc {
				continue
			}
			var id *ast.Ident
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.Ident:
				id = rhs
			case *ast.SelectorExpr:
				id = rhs.Sel
			default:
				continue
			}
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				store.addFieldFunc(fieldFuncKey(named, f), fn)
			}
		}
		return true
	})
}

// resolveCallees returns the module-internal functions a call can reach
// statically: the resolved callee, or — for a dynamic call through an
// unexported func-typed struct field — every function assigned to that
// field in its declaring package.
func resolveCallees(p *Package, call *ast.CallExpr, store *Facts) []*types.Func {
	if fn := calleeFunc(p, call); fn != nil {
		if isModuleFunc(p, fn) {
			return []*types.Func{fn}
		}
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	named, f := fieldOwner(p, sel)
	if named == nil || f.Exported() {
		return nil
	}
	if _, isFunc := f.Type().Underlying().(*types.Signature); !isFunc {
		return nil
	}
	return store.fieldFuncs(fieldFuncKey(named, f))
}

// --- callee scan ------------------------------------------------------

// calleeScan returns a function body's module-internal callee edges,
// each callee once, in first-call order. FuncLit bodies and go
// statements run asynchronously relative to the body, arguments of a
// direct panic(...) only while dying, and conversions and builtins
// call nothing, so none of them contributes an edge.
func calleeScan(p *Package, decl *ast.FuncDecl, store *Facts) []*types.Func {
	var callees []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() {
				return true
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
					return b.Name() != "panic"
				}
			}
			for _, fn := range resolveCallees(p, x, store) {
				if !seen[fn] {
					seen[fn] = true
					callees = append(callees, fn)
				}
			}
		}
		return true
	})
	return callees
}

// --- lock sweep -------------------------------------------------------

// heldLock is one entry of the sweep's held-lock stack.
type heldLock struct {
	id    string
	rlock bool
}

// lockEvent kinds. Every event carries a snapshot of the locks held at
// the operation.
const (
	evAcquire     = iota // a lock acquisition (acq/acqR set)
	evBlock              // a potentially blocking operation (what set)
	evCall               // a module-internal call (callee set)
	evParamInvoke        // the function invokes its own func parameter (paramIdx set)
	evPassFunc           // a func value passed to a module-internal callee (callee, argIdx, arg set)
)

type lockEvent struct {
	kind     int
	held     []heldLock
	acq      string
	acqR     bool
	what     string
	callee   *types.Func
	paramIdx int
	argIdx   int
	arg      ast.Expr
	pos      token.Pos
}

// lockSweeper walks one function body in source order maintaining the
// set of held locks. It is deliberately a linear positional
// approximation, not a CFG: a release inside an early-exit branch (one
// whose statement list ends in return/branch/panic) is scoped to that
// branch, everything else ends the region for the code that follows.
// FuncLit bodies, go statements and deferred calls run asynchronously
// relative to the sweep and are excluded; a defer'd Unlock therefore
// simply leaves the lock held to the end of the function, which is
// exactly its semantics.
type lockSweeper struct {
	p      *Package
	store  *Facts
	params map[types.Object]int
	held   []heldLock
	emit   func(lockEvent)
}

func sweepLocks(p *Package, decl *ast.FuncDecl, store *Facts, emit func(lockEvent)) {
	w := &lockSweeper{p: p, store: store, params: funcValueParams(p, decl), emit: emit}
	w.stmtList(decl.Body.List)
}

// funcValueParams maps fn's func-typed parameter objects to their
// indices, for evParamInvoke detection.
func funcValueParams(p *Package, decl *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	for obj, idx := range paramObjects(p, decl) {
		if idx < 0 {
			continue
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); ok {
			out[obj] = idx
		}
	}
	return out
}

func (w *lockSweeper) event(ev lockEvent) {
	ev.held = append([]heldLock(nil), w.held...)
	w.emit(ev)
}

func (w *lockSweeper) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.stmt(s)
	}
}

// nested processes a subordinate statement list. Lists that end on an
// early exit get a copy of the held state (their releases are scoped to
// the abandoned path); fall-through lists mutate the outer state.
func (w *lockSweeper) nested(stmts []ast.Stmt) {
	if terminates(stmts) {
		saved := append([]heldLock(nil), w.held...)
		w.stmtList(stmts)
		w.held = saved
		return
	}
	w.stmtList(stmts)
}

// terminates reports whether the statement list cannot fall through:
// its last statement is a return, a branch, or a panic call.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockSweeper) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.expr(x.X)
	case *ast.SendStmt:
		w.expr(x.Chan)
		w.expr(x.Value)
		w.event(lockEvent{kind: evBlock, what: "channel send", pos: x.Arrow})
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.expr(e)
		}
		for _, e := range x.Lhs {
			w.expr(e)
		}
	case *ast.IncDecStmt:
		w.expr(x.X)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		w.expr(x.Cond)
		w.nested(x.Body.List)
		switch e := x.Else.(type) {
		case *ast.BlockStmt:
			w.nested(e.List)
		case *ast.IfStmt:
			w.stmt(e)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		if x.Cond != nil {
			w.expr(x.Cond)
		}
		w.nested(x.Body.List)
		if x.Post != nil {
			w.stmt(x.Post)
		}
	case *ast.RangeStmt:
		w.expr(x.X)
		if tv, ok := w.p.Info.Types[x.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.event(lockEvent{kind: evBlock, what: "channel receive", pos: x.For})
			}
		}
		w.nested(x.Body.List)
	case *ast.BlockStmt:
		w.nested(x.List)
	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		if x.Tag != nil {
			w.expr(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.nested(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.nested(cc.Body)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.event(lockEvent{kind: evBlock, what: "blocking select", pos: x.Select})
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.nested(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(x.Stmt)
	case *ast.GoStmt, *ast.DeferStmt:
		// Asynchronous relative to this sweep; a deferred Unlock keeps
		// the lock held to the end, which skipping models exactly.
	}
}

func (w *lockSweeper) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.CallExpr:
		w.call(x)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.event(lockEvent{kind: evBlock, what: "channel receive", pos: x.OpPos})
		}
		w.expr(x.X)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.SliceExpr:
		w.expr(x.X)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			w.expr(elt)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Value)
	}
}

// blockingCallee classifies stdlib calls that can block or perform I/O
// while a lock is held.
func blockingCallee(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	path := funcPkgPath(fn)
	switch {
	case path == "sync" && fn.Name() == "Wait":
		return "sync Wait"
	case isPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep"
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network call to " + pkgBase(path) + "." + fn.Name()
	case path == "os" && osFileOps[fn.Name()]:
		return "file I/O (os." + fn.Name() + ")"
	}
	return ""
}

// osFileOps are the package-os functions and *os.File methods treated
// as store I/O by lockorder.
var osFileOps = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Rename": true, "Remove": true,
	"RemoveAll": true, "MkdirAll": true, "Mkdir": true, "ReadDir": true,
	"Stat": true, "Read": true, "Write": true, "WriteString": true,
	"Sync": true, "Close": true, "Seek": true, "Truncate": true,
}

func (w *lockSweeper) call(c *ast.CallExpr) {
	for _, a := range c.Args {
		w.expr(a)
	}
	fun := ast.Unparen(c.Fun)
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		w.expr(f.X)
	case *ast.Ident:
	default:
		w.expr(fun)
	}
	fn := calleeFunc(w.p, c)
	switch {
	case isSyncMethod(fn, "Lock") || isSyncMethod(fn, "RLock"):
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if id := lockID(w.p, sel.X); id != "" {
				r := fn.Name() == "RLock"
				w.event(lockEvent{kind: evAcquire, acq: id, acqR: r, pos: c.Pos()})
				w.held = append(w.held, heldLock{id: id, rlock: r})
			}
		}
		return
	case isSyncMethod(fn, "Unlock") || isSyncMethod(fn, "RUnlock"):
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if id := lockID(w.p, sel.X); id != "" {
				w.release(id)
			}
		}
		return
	case fn != nil:
		if what := blockingCallee(fn); what != "" {
			w.event(lockEvent{kind: evBlock, what: what, pos: c.Pos()})
			return
		}
	default:
		if id, ok := fun.(*ast.Ident); ok {
			if idx, isParam := w.params[w.p.Info.Uses[id]]; isParam {
				w.event(lockEvent{kind: evParamInvoke, paramIdx: idx, pos: c.Pos()})
				return
			}
		}
	}
	for _, callee := range resolveCallees(w.p, c, w.store) {
		w.event(lockEvent{kind: evCall, callee: callee, pos: c.Pos()})
	}
	if fn != nil && isModuleFunc(w.p, fn) {
		for i, a := range c.Args {
			if isFuncValueArg(w.p, a) {
				w.event(lockEvent{kind: evPassFunc, callee: fn, argIdx: i, arg: a, pos: a.Pos()})
			}
		}
	}
}

// isFuncValueArg reports whether the argument is a function literal or
// a direct function reference (the shapes funcValueAcquires can see
// through).
func isFuncValueArg(p *Package, a ast.Expr) bool {
	switch x := ast.Unparen(a).(type) {
	case *ast.FuncLit:
		return true
	case *ast.Ident:
		_, ok := p.Info.Uses[x].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := p.Info.Uses[x.Sel].(*types.Func)
		return ok
	}
	return false
}

// release pops the most recent matching lock from the held stack.
func (w *lockSweeper) release(id string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// --- fact assembly ----------------------------------------------------

// lockFactSummary is what one function's sweep contributes to the fact
// store.
type lockFactSummary struct {
	acquires    []string
	blocks      []string
	heldEdges   [][2]string
	heldCallees []HeldCallee
	paramCalls  map[int][]string
}

func sweepLockFacts(p *Package, decl *ast.FuncDecl, store *Facts) lockFactSummary {
	var sum lockFactSummary
	edgeSeen := map[[2]string]bool{}
	calleeSeen := map[HeldCallee]bool{}
	sweepLocks(p, decl, store, func(ev lockEvent) {
		switch ev.kind {
		case evAcquire:
			sum.acquires = addString(sum.acquires, ev.acq)
			for _, h := range ev.held {
				if h.id == ev.acq {
					continue
				}
				e := [2]string{h.id, ev.acq}
				if !edgeSeen[e] {
					edgeSeen[e] = true
					sum.heldEdges = append(sum.heldEdges, e)
				}
			}
		case evBlock:
			sum.blocks = addString(sum.blocks, ev.what)
		case evCall:
			for _, h := range ev.held {
				hc := HeldCallee{Held: h.id, Callee: ev.callee}
				if !calleeSeen[hc] {
					calleeSeen[hc] = true
					sum.heldCallees = append(sum.heldCallees, hc)
				}
			}
		case evParamInvoke:
			if len(ev.held) == 0 {
				break
			}
			if sum.paramCalls == nil {
				sum.paramCalls = map[int][]string{}
			}
			for _, h := range ev.held {
				sum.paramCalls[ev.paramIdx] = addString(sum.paramCalls[ev.paramIdx], h.id)
			}
		}
	})
	return sum
}

// addString inserts s into the sorted set.
func addString(set []string, s string) []string {
	i := sort.SearchStrings(set, s)
	if i < len(set) && set[i] == s {
		return set
	}
	set = append(set, "")
	copy(set[i+1:], set[i:])
	set[i] = s
	return set
}

// unionStrings merges src into the sorted set dst, reporting growth.
func unionStrings(dst, src []string) ([]string, bool) {
	grew := false
	for _, s := range src {
		if n := addString(dst, s); len(n) != len(dst) {
			dst, grew = n, true
		}
	}
	return dst, grew
}

// computeLockFacts fills the lockorder facts for one package:
// field-func assignments first (dynamic field calls resolve against
// them), then per-function one-shot scans, then a fixpoint for the
// propagation facts (AllAcquires, Blocks), then the interface-method
// union so calls through module-internal interfaces (jobstore.Store)
// see the union of their in-package implementations.
func computeLockFacts(p *Package, fns []declFn, store *Facts) {
	for _, df := range fns {
		recordFieldFuncs(p, df.decl, store)
	}
	for _, df := range fns {
		fact := store.Lookup(df.fn)
		fact.Callees = calleeScan(p, df.decl, store)
		sum := sweepLockFacts(p, df.decl, store)
		fact.Acquires = sum.acquires
		fact.AllAcquires = append([]string(nil), sum.acquires...)
		fact.Blocks = sum.blocks
		fact.HeldEdges = sum.heldEdges
		fact.HeldCallees = sum.heldCallees
		fact.LockParamCalls = sum.paramCalls
		store.put(df.fn, fact)
	}
	for changed := true; changed; {
		changed = false
		for _, df := range fns {
			fact := store.Lookup(df.fn)
			updated := false
			for _, c := range fact.Callees {
				cf := store.Lookup(c)
				if acq, grew := unionStrings(fact.AllAcquires, cf.AllAcquires); grew {
					fact.AllAcquires = acq
					updated = true
				}
				if bl, grew := unionStrings(fact.Blocks, cf.Blocks); grew {
					fact.Blocks = bl
					updated = true
				}
			}
			if updated {
				store.put(df.fn, fact)
				changed = true
			}
		}
	}
	unionInterfaceFacts(p, store)
}

// unionInterfaceFacts publishes, for every interface declared in p, the
// union of the lock facts of its in-package implementations onto
// the interface's own method objects. A call through jobstore.Store.Add
// then sees what Memory.Add (and FS via embedding) actually does.
// Restricting to implementations declared in the same package keeps the
// result schedule-independent: the set never depends on which other
// packages happen to be loaded.
func unionInterfaceFacts(p *Package, store *Facts) {
	scope := p.Pkg.Scope()
	names := scope.Names()
	var ifaces []*types.Named
	var impls []types.Type
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named) {
			ifaces = append(ifaces, named)
		} else {
			impls = append(impls, named, types.NewPointer(named))
		}
	}
	for _, named := range ifaces {
		iface, ok := named.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			fact := store.Lookup(m)
			updated := false
			seenImpl := map[*types.Func]bool{}
			seenHeld := map[HeldCallee]bool{}
			for _, hc := range fact.HeldCallees {
				seenHeld[hc] = true
			}
			for _, impl := range impls {
				if !types.Implements(impl, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, p.Pkg, m.Name())
				implFn, ok := obj.(*types.Func)
				if !ok || seenImpl[implFn] {
					continue
				}
				seenImpl[implFn] = true
				implFact := store.Lookup(implFn)
				if acq, grew := unionStrings(fact.AllAcquires, implFact.AllAcquires); grew {
					fact.AllAcquires = acq
					updated = true
				}
				if bl, grew := unionStrings(fact.Blocks, implFact.Blocks); grew {
					fact.Blocks = bl
					updated = true
				}
				for _, hc := range implFact.HeldCallees {
					if !seenHeld[hc] {
						seenHeld[hc] = true
						fact.HeldCallees = append(fact.HeldCallees, hc)
						updated = true
					}
				}
			}
			if updated {
				store.put(m, fact)
			}
		}
	}
}
