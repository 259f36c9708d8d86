package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// unitcheck is the dimensional-safety analyzer. internal/units gives
// every physical quantity of the paper's equations a defined type
// (units.MHz, units.Micros, units.Watt, ...), which makes cross-unit
// slips a compile error at package boundaries — but defined float64
// types convert freely to float64, so a value laundered through
// float64() silently sheds its dimension. unitcheck closes the three
// gaps the type system leaves open:
//
//	(a) raw float64 parameters, struct fields, and named results whose
//	    identifiers name a physical quantity (freq, mhz, volt, watt,
//	    power, temp, energy, micros, ...) inside the packages that were
//	    moved to units types. A `freqsMHz []float64` parameter is a
//	    unit regression waiting to happen; declare it []units.MHz.
//	(b) additive arithmetic and comparisons whose operands carry
//	    different unit provenance. Provenance survives float64()
//	    conversions and flows through local float64 variables
//	    (intraprocedurally), so `float64(f) + float64(t)` with f MHz
//	    and t Micros is flagged even though both operands type-check
//	    as float64. Multiplication and division drop provenance: they
//	    legitimately change dimension (f·t = cycles, P·t = energy).
//	(c) bare frequency literals materializing as units.MHz outside
//	    internal/vf (the V-F table) and internal/units. Operating
//	    points come from a vf.Curve (Grid/Min/Max/Clamp); a literal
//	    1500 elsewhere either duplicates the table or invents a point
//	    off it. The sentinels 0 and ±1 are exempt.

// unitsPkgPath is the package defining the typed physical quantities.
const unitsPkgPath = "npudvfs/internal/units"

// unitTypedPkgs are the packages whose APIs carry units types; rule (a)
// polices only these — packages outside the list (npu, powersim,
// profiler, stats, ga, ...) deliberately keep raw-float64 numeric
// kernels and convert at their boundaries.
var unitTypedPkgs = map[string]bool{
	"npudvfs":                     true,
	"npudvfs/internal/units":      true,
	"npudvfs/internal/vf":         true,
	"npudvfs/internal/thermal":    true,
	"npudvfs/internal/perfmodel":  true,
	"npudvfs/internal/powermodel": true,
	"npudvfs/internal/core":       true,
	"npudvfs/internal/traceio":    true,
}

// freqLiteralExemptPkgs may spell frequencies as literals: vf owns the
// V-F table, and units documents the quantity types themselves.
var freqLiteralExemptPkgs = map[string]bool{
	unitsPkgPath:          true,
	"npudvfs/internal/vf": true,
}

// unitLexicon maps identifier fragments to the units type a raw
// float64 bearing that name should have been.
var unitLexicon = []struct{ word, unit string }{
	{"freq", "MHz"}, {"mhz", "MHz"}, {"ghz", "MHz"},
	{"volt", "Volt"},
	{"watt", "Watt"}, {"power", "Watt"},
	{"celsius", "Celsius"}, {"temp", "Celsius"},
	{"energy", "Millijoule"}, {"joule", "Millijoule"},
	{"micros", "Micros"}, {"millis", "Millis"},
}

// UnitCheck enforces dimensional safety on top of internal/units: no
// lexicon-named raw float64 in typed package signatures, no cross-unit
// arithmetic laundered through float64, no bare frequency literals
// outside internal/vf.
var UnitCheck = &Analyzer{
	Name: "unitcheck",
	Doc:  "flag raw-float64 physical quantities, cross-unit arithmetic, and bare frequency literals",
	Run: func(p *Package, report func(pos token.Pos, format string, args ...any)) {
		for _, f := range p.Files {
			if unitTypedPkgs[p.ImportPath] {
				checkUnitSignatures(p, f, report)
			}
			prov := collectUnitProvenance(p, f)
			checkUnitArithmetic(p, f, prov, report)
			if !freqLiteralExemptPkgs[p.ImportPath] {
				checkFreqLiterals(p, f, report)
			}
		}
	},
}

// unitName returns the units type name ("MHz") when t is a defined
// type of internal/units, and "" otherwise.
func unitName(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != unitsPkgPath {
		return ""
	}
	return obj.Name()
}

// rawFloat64ish reports whether t is the predeclared float64 or a
// slice of it — the shapes rule (a) flags. Defined types (including
// the units types themselves) are not "raw".
func rawFloat64ish(t types.Type) (string, bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Basic:
		if t.Kind() == types.Float64 {
			return "float64", true
		}
	case *types.Slice:
		if b, ok := types.Unalias(t.Elem()).(*types.Basic); ok && b.Kind() == types.Float64 {
			return "[]float64", true
		}
	}
	return "", false
}

// lexiconUnit returns the units type suggested by the identifier's
// name, or "" when the name carries no physical-quantity fragment.
func lexiconUnit(name string) string {
	lower := strings.ToLower(name)
	for _, e := range unitLexicon {
		if strings.Contains(lower, e.word) {
			return e.unit
		}
	}
	return ""
}

// checkUnitSignatures is rule (a): walk every function signature
// (declarations, literals, interface methods) and struct definition,
// flagging float64-typed names that read like physical quantities.
func checkUnitSignatures(p *Package, f *ast.File, report func(pos token.Pos, format string, args ...any)) {
	checkFields := func(fl *ast.FieldList, role string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			shape, ok := rawFloat64ish(p.Info.TypeOf(field.Type))
			if !ok {
				continue
			}
			for _, name := range field.Names {
				unit := lexiconUnit(name.Name)
				if unit == "" {
					continue
				}
				report(name.Pos(), "raw %s %s %q names a physical quantity; declare it with units.%s so cross-unit slips fail to compile",
					shape, role, name.Name, unit)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			checkFields(n.Params, "parameter")
			checkFields(n.Results, "result")
		case *ast.StructType:
			checkFields(n.Fields, "field")
		}
		return true
	})
}

// collectUnitProvenance is the dataflow half of rule (b): a forward
// pass over the file recording, for each plain-float64 local, the unit
// it was laundered from (x := float64(f) gives x provenance MHz).
// Conflicting reassignments demote the variable to "no provenance" —
// the analysis stays conservative rather than flow-sensitive.
func collectUnitProvenance(p *Package, f *ast.File) map[types.Object]string {
	prov := map[types.Object]string{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		// Only plain float64 locals need tracking; typed variables
		// already carry their unit in the type system.
		if b, ok := types.Unalias(obj.Type()).(*types.Basic); !ok || b.Kind() != types.Float64 {
			return
		}
		u := unitOf(p, prov, rhs)
		if old, seen := prov[obj]; seen && old != u {
			u = ""
		}
		prov[obj] = u
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return prov
}

// unitOf computes the unit provenance of an expression: the defined
// units type it carries, survives float64() conversions and +/- with
// unitless offsets, and is dropped by * and / (dimension changes).
func unitOf(p *Package, prov map[types.Object]string, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.BasicLit:
		// Literals are unitless offsets even when the checker has
		// materialized them at a unit type.
		return ""
	case *ast.Ident:
		if obj := p.Info.Uses[x]; obj != nil {
			if u, ok := prov[obj]; ok {
				return u
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return unitOf(p, prov, x.X)
		}
		return ""
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB:
			lu, ru := unitOf(p, prov, x.X), unitOf(p, prov, x.Y)
			switch {
			case lu == ru:
				return lu
			case lu == "":
				return ru
			case ru == "":
				return lu
			}
			return "" // mixed; the flagging pass reports at the operator
		default:
			return "" // *, /, %, shifts: dimension changes hands
		}
	case *ast.CallExpr:
		if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
			// A conversion: to a units type, the target IS the unit;
			// to a float, provenance tunnels through (the laundering
			// rule (b) exists for).
			if u := unitName(p.Info.TypeOf(x)); u != "" {
				return u
			}
			if b, ok := types.Unalias(p.Info.TypeOf(x)).(*types.Basic); ok &&
				b.Info()&types.IsFloat != 0 && len(x.Args) == 1 {
				return unitOf(p, prov, x.Args[0])
			}
			return ""
		}
	}
	// Everything else — typed variables, selectors, method results like
	// t.Micros() — answers through its static type.
	return unitName(p.Info.TypeOf(e))
}

// checkUnitArithmetic is the flagging half of rule (b): additive
// operators and comparisons whose operands resolve to two different
// units are dimensional errors regardless of their float64 spelling.
func checkUnitArithmetic(p *Package, f *ast.File, prov map[types.Object]string, report func(pos token.Pos, format string, args ...any)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				lu, ru := unitOf(p, prov, n.X), unitOf(p, prov, n.Y)
				if lu != "" && ru != "" && lu != ru {
					report(n.OpPos, "unit mismatch: %s (units.%s) %s %s (units.%s); laundering through float64 does not change the dimension — convert through a units helper",
						renderExpr(p, n.X), lu, n.Op, renderExpr(p, n.Y), ru)
				}
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				lu, ru := unitOf(p, prov, n.Lhs[0]), unitOf(p, prov, n.Rhs[0])
				if lu != "" && ru != "" && lu != ru {
					report(n.TokPos, "unit mismatch: %s (units.%s) %s %s (units.%s)",
						renderExpr(p, n.Lhs[0]), lu, n.Tok, renderExpr(p, n.Rhs[0]), ru)
				}
			}
		}
		return true
	})
}

// litFloatValue extracts the constant value of a basic literal.
func litFloatValue(p *Package, lit *ast.BasicLit) (float64, bool) {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, _ := constant.Float64Val(constant.ToFloat(tv.Value))
	return v, true
}

// checkFreqLiterals is rule (c): every syntactic route by which an
// untyped numeric literal can materialize as units.MHz — conversions,
// composite literals, keyed struct fields, assignments, declarations,
// call arguments, comparisons — is flagged outside the exempt
// packages. 0 and ±1 pass: they are sentinels, not operating points.
func checkFreqLiterals(p *Package, f *ast.File, report func(pos token.Pos, format string, args ...any)) {
	seen := map[token.Pos]bool{}
	flag := func(e ast.Expr, context string) {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && (u.Op == token.SUB || u.Op == token.ADD) {
			e = ast.Unparen(u.X)
		}
		lit, ok := e.(*ast.BasicLit)
		if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) || seen[lit.Pos()] {
			return
		}
		//lint:allow floateq exact sentinel: 0 and ±1 are the zero-value and unset-marker exemptions, compared as exact constants
		if v, ok := litFloatValue(p, lit); ok && (v == 0 || v == 1) {
			return
		}
		seen[lit.Pos()] = true
		report(lit.Pos(), "bare frequency literal %s %s; operating points come from the V-F curve (vf.Curve Grid/Min/Max), or annotate a protocol constant with %s unitcheck <reason>",
			lit.Value, context, allowPrefix)
	}
	isMHz := func(t types.Type) bool { return unitName(t) == "MHz" }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
				if isMHz(p.Info.TypeOf(n)) && len(n.Args) == 1 {
					flag(n.Args[0], "converted to units.MHz")
				}
				return true
			}
			if sig, ok := types.Unalias(p.Info.TypeOf(n.Fun)).(*types.Signature); ok {
				for i, arg := range n.Args {
					if pt := paramTypeAt(sig, i); pt != nil && isMHz(pt) {
						flag(arg, "passed as a units.MHz argument")
					}
				}
			}
		case *ast.CompositeLit:
			switch t := types.Unalias(p.Info.TypeOf(n)).Underlying().(type) {
			case *types.Slice:
				if isMHz(t.Elem()) {
					for _, elt := range n.Elts {
						flag(elt, "in a []units.MHz literal")
					}
				}
			case *types.Array:
				if isMHz(t.Elem()) {
					for _, elt := range n.Elts {
						flag(elt, "in a units.MHz array literal")
					}
				}
			case *types.Map:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if isMHz(t.Key()) {
							flag(kv.Key, "as a units.MHz map key")
						}
						if isMHz(t.Elem()) {
							flag(kv.Value, "as a units.MHz map value")
						}
					}
				}
			case *types.Struct:
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && isMHz(p.Info.TypeOf(id)) {
							flag(kv.Value, "assigned to a units.MHz field")
						}
						continue
					}
					if i < t.NumFields() && isMHz(t.Field(i).Type()) {
						flag(elt, "assigned to a units.MHz field")
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if isMHz(p.Info.TypeOf(n.Lhs[i])) {
						flag(n.Rhs[i], "assigned to a units.MHz variable")
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && isMHz(p.Info.TypeOf(n.Type)) {
				for _, v := range n.Values {
					flag(v, "declared as units.MHz")
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				if isMHz(p.Info.TypeOf(n.X)) {
					flag(n.Y, "compared against a units.MHz value")
				}
				if isMHz(p.Info.TypeOf(n.Y)) {
					flag(n.X, "compared against a units.MHz value")
				}
			}
		}
		return true
	})
}

// paramTypeAt resolves the type of the i-th argument's parameter,
// unrolling the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		if s, ok := types.Unalias(params.At(params.Len() - 1).Type()).(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}
