package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose outputs feed the
// byte-identity and cache-key guarantees (DESIGN.md §8): everything on
// a compute path must derive randomness from an explicit seeded source
// and must not read the wall clock. experiments is included because
// its reports must be byte-identical at any worker count; its few
// legitimate wall-clock duration fields carry //lint:allow directives.
// ring and jobstore join the list for DESIGN.md §12: ring files and
// stored records must be byte-identical across peers and restarts (the
// one audited wall-clock field, SavedUnixNano, carries its allow).
var deterministicPkgs = map[string]bool{
	"core":        true,
	"ga":          true,
	"perfmodel":   true,
	"powermodel":  true,
	"npu":         true,
	"executor":    true,
	"powersim":    true,
	"preprocess":  true,
	"classify":    true,
	"thermal":     true,
	"vf":          true,
	"pipeline":    true,
	"experiments": true,
	"ring":        true,
	"jobstore":    true,
}

// randConstructors are the package-level math/rand functions that are
// fine in deterministic code: they build explicit, seedable sources
// instead of touching the process-global RNG.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// wallClockFns are the time package functions that read the wall
// clock. time.Sleep is deliberately excluded: sleeping is a scheduling
// concern, not a value-producing read.
var wallClockFns = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// DetRand forbids the process-global math/rand entry points and
// wall-clock reads inside deterministic packages. The global RNG is
// shared mutable state: a single rand.Intn on a compute path makes
// strategies depend on goroutine interleaving and breaks the
// byte-identical-at-any-worker-count contract.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid global math/rand and wall-clock reads in deterministic packages",
	Run: func(p *Package, report func(pos token.Pos, format string, args ...any)) {
		if !isInternalPkg(p.ImportPath) || !deterministicPkgs[pkgBase(p.ImportPath)] {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil {
					return true
				}
				switch pkg := funcPkgPath(fn); pkg {
				case "math/rand", "math/rand/v2":
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructors[fn.Name()] {
						report(call.Pos(), "%s.%s uses the process-global RNG; use rand.New(rand.NewSource(seed)) so results are schedule-independent", pkg, fn.Name())
					}
				case "time":
					if wallClockFns[fn.Name()] {
						report(call.Pos(), "time.%s reads the wall clock in deterministic package %s; timing must not influence strategies or reports", fn.Name(), pkgBase(p.ImportPath))
					}
				}
				return true
			})
		}
	},
}
