package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// guardedField is a struct field documented atomic-only. Any selector
// access outside its home file is a violation (the home file holds the
// audited accessor methods); when atomicElems is set, even the home
// file may only index the field underneath a sync/atomic call.
type guardedField struct {
	pkg, typ, field string
	home            string
	atomicElems     bool
	why             string
}

// The registry of atomic-only storage. Each entry names an invariant
// one of the -race CI gates proves at runtime; this analyzer keeps new
// code from ever reaching those gates with a plain load or store.
var guardedFields = []guardedField{
	{
		pkg: "saco/internal/mat", typ: "AtomicVec", field: "bits",
		home: "atomic.go", atomicElems: true,
		why: "the HOGWILD shared iterate: every element access must be a sync/atomic op or updates tear",
	},
	{
		pkg: "saco/internal/runtime", typ: "job", field: "taken",
		home: "pool.go",
		why:  "chunk-claim flags: CompareAndSwap is the single claim authority",
	},
	{
		pkg: "saco/internal/serve", typ: "Registry", field: "cur",
		home: "registry.go",
		why:  "the serving model pointer: readers must load it wait-free through Current",
	},
	{
		pkg: "saco/internal/metrics", typ: "Histogram", field: "counts",
		home: "histogram.go",
		why:  "lock-free histogram bucket counters: Observe and snapshot are the only audited access",
	},
	{
		pkg: "saco/internal/shard", typ: "Table", field: "cur",
		home: "table.go",
		why:  "the live ring pointer: request paths must load it wait-free through Current, swaps go through Set",
	},
}

// AtomicGuard enforces the registry above.
var AtomicGuard = &Analyzer{
	Name: "atomicguard",
	Doc: "flags direct loads/stores of fields documented atomic-only (mat.AtomicVec storage, " +
		"the serve registry model pointer, the shard ring pointer, metrics histogram counters, " +
		"runtime pool taken[] claims)",
	Run: runAtomicGuard,
}

func runAtomicGuard(pass *Pass) error {
	inspectStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		g, ok := fieldGuard(pass, sel)
		if !ok {
			return true
		}
		file := filepath.Base(pass.Fset.Position(sel.Pos()).Filename)
		if file != g.home {
			pass.Report(sel.Pos(),
				"direct access to %s.%s.%s outside its home file %s: %s — use the accessor methods",
				g.pkg, g.typ, g.field, g.home, g.why)
			return true
		}
		if g.atomicElems {
			checkAtomicIndex(pass, sel, g, stack)
		}
		return true
	})
	return nil
}

// fieldGuard resolves sel against the guarded-field registry.
func fieldGuard(pass *Pass, sel *ast.SelectorExpr) (guardedField, bool) {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return guardedField{}, false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return guardedField{}, false
	}
	for _, g := range guardedFields {
		if named.Obj().Pkg().Path() == g.pkg && named.Obj().Name() == g.typ && sel.Sel.Name == g.field {
			return g, true
		}
	}
	return guardedField{}, false
}

// checkAtomicIndex enforces the in-home rule for atomicElems fields:
// indexing the backing slice is legal only as &field[i] passed straight
// to a sync/atomic function. Ranging for the index, len/cap, and
// whole-slice (re)assignment stay legal — they touch structure, not
// elements.
func checkAtomicIndex(pass *Pass, sel *ast.SelectorExpr, g guardedField, stack []ast.Node) {
	if len(stack) == 0 {
		return
	}
	idx, ok := stack[len(stack)-1].(*ast.IndexExpr)
	if !ok || idx.X != sel {
		return
	}
	// Expect ... CallExpr(sync/atomic) -> UnaryExpr(&) -> IndexExpr.
	if len(stack) >= 3 {
		if amp, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && amp.X == idx {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok {
				if fn, ok := callPkgFunc(pass, call); ok && fn.Pkg().Path() == "sync/atomic" {
					return
				}
			}
		}
	}
	pass.Report(idx.Pos(),
		"non-atomic element access to %s.%s: %s — wrap it in a sync/atomic operation",
		g.typ, g.field, g.why)
}

// callPkgFunc returns the package-level function a call selects, if
// its callee is pkg.Func.
func callPkgFunc(pass *Pass, call *ast.CallExpr) (*types.Func, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, false
	}
	return fn, true
}
