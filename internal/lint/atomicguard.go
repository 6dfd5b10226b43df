package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
)

// guardedField is a struct field documented atomic-only. Any selector
// access outside its home file is a violation (the home file holds the
// audited accessor methods).
type guardedField struct {
	pkg, typ, field string
	home            string
	why             string
}

// The registry of atomic-only storage. Each entry names an invariant
// one of the -race CI gates proves at runtime; this analyzer keeps new
// code from ever reaching those gates with a plain load or store.
var guardedFields = []guardedField{
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
	{
		pkg: "saco/internal/sparse", typ: "CSR", field: "memo",
		home: "rowmemo.go",
		why:  "the memo of converted row blocks: it is installed lazily, so every access must be memoSlot's atomic load or install or it races a view",
	},
}

// readOnlyField is a struct whose array fields are read-only once built
// outside the package that builds them: no element store (index
// assignment, op-assignment, ++/--, or a copy into the array) may name
// them elsewhere. Reassigning the whole field is a new array and stays
// legal.
type readOnlyField struct {
	pkg, typ string
	fields   []string
	why      string
}

// The registry of read-only storage: a CSR keeps the row blocks it has
// converted and hands the same CSC to every caller, so a store into
// either would be seen by every later solve on the matrix.
var readOnlyFields = []readOnlyField{
	{
		pkg: "saco/internal/sparse", typ: "CSR", fields: []string{"RowPtr", "ColIdx", "Val"},
		why: "a CSR keeps the row blocks it has converted, keyed by its slice headers: a store would leave them stale",
	},
	{
		pkg: "saco/internal/sparse", typ: "CSC", fields: []string{"ColPtr", "RowIdx", "Val"},
		why: "a converted row block is shared by every caller that asks for the range: a store changes it for all of them",
	},
}

// AtomicGuard enforces the registry above.
var AtomicGuard = &Analyzer{
	Name: "atomicguard",
	Doc: "flags direct loads/stores of fields documented atomic-only (" +
		"the serve registry model pointer, the shard ring pointer, metrics histogram counters, " +
		"the sparse CSR's row-block memo) and element stores into " +
		"the sparse CSR and CSC arrays outside internal/sparse",
	Run: runAtomicGuard,
}

func runAtomicGuard(pass *Pass) error {
	inspectStack(pass.Files, func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkElemStore(pass, lhs, false)
			}
		case *ast.IncDecStmt:
			checkElemStore(pass, n.X, false)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 2 {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
					checkElemStore(pass, n.Args[0], true)
				}
			}
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		g, ok := fieldGuard(pass, sel)
		if !ok {
			return true
		}
		if filepath.Base(pass.Fset.Position(sel.Pos()).Filename) != g.home {
			pass.Report(sel.Pos(),
				"direct access to %s.%s.%s outside its home file %s: %s — use the accessor methods",
				g.pkg, g.typ, g.field, g.home, g.why)
		}
		return true
	})
	return nil
}

// fieldGuard resolves sel against the guarded-field registry.
func fieldGuard(pass *Pass, sel *ast.SelectorExpr) (guardedField, bool) {
	pkg, typ, ok := fieldOwner(pass, sel)
	if !ok {
		return guardedField{}, false
	}
	for _, g := range guardedFields {
		if pkg == g.pkg && typ == g.typ && sel.Sel.Name == g.field {
			return g, true
		}
	}
	return guardedField{}, false
}

// fieldOwner returns the package path and name of the struct type whose
// field sel selects.
func fieldOwner(pass *Pass, sel *ast.SelectorExpr) (pkg, typ string, ok bool) {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", "", false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// checkElemStore reports dst if it stores into an element of a
// read-only field outside the field's package: dst is the target of an
// assignment or ++/-- (an index expression), or, when copyDst is set,
// the destination of copy (the field or a slice of it).
func checkElemStore(pass *Pass, dst ast.Expr, copyDst bool) {
	x := ast.Unparen(dst)
	if !copyDst {
		idx, ok := x.(*ast.IndexExpr)
		if !ok {
			return
		}
		x = ast.Unparen(idx.X)
	}
	for s, ok := x.(*ast.SliceExpr); ok; s, ok = x.(*ast.SliceExpr) {
		x = ast.Unparen(s.X)
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, typ, ok := fieldOwner(pass, sel)
	if !ok || pkg == pass.Path {
		return
	}
	for _, r := range readOnlyFields {
		if pkg == r.pkg && typ == r.typ && slices.Contains(r.fields, sel.Sel.Name) {
			pass.Report(dst.Pos(), "element store into read-only %s.%s.%s outside %s: %s — build a new matrix instead",
				r.pkg, r.typ, sel.Sel.Name, r.pkg, r.why)
			return
		}
	}
}
