package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DetFloat flags float reductions whose summation order differs from
// the single-accumulator fold — the shape that silently moves a kernel
// out of its bitwise class. Two patterns are reported:
//
//   - a loop that accumulates into two or more distinct float
//     variables which are later combined with + (the classic
//     lane-split reduction: s0..s3 summed after the loop), and
//   - any call to math.FMA (fused multiply-add contracts the
//     intermediate rounding step and is not reproducible across
//     kernel sets).
//
// No file is exempt: internal/simd's reductions are the scalar loops,
// and a deliberate deviation carries a //saco:nolint with its reason.
var DetFloat = &Analyzer{
	Name: "detfloat",
	Doc: "flags multi-accumulator float reductions and math.FMA " +
		"(reduction order defines the bitwise class)",
	Run: runDetFloat,
}

func runDetFloat(pass *Pass) error {
	if !deterministicPkgs[pass.Path] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgFunc(pass.Info, n, "math", "FMA") {
					pass.Report(n.Pos(), "math.FMA contracts the intermediate rounding and is not bitwise-reproducible across kernel sets; use a*b+c via the dispatched kernels instead")
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					detFloatFunc(pass, n.Body)
				}
				// Keep descending so the CallExpr case sees math.FMA
				// inside the body; detFloatFunc itself is only triggered
				// by FuncDecl nodes, which do not nest.
			}
			return true
		})
	}
	return nil
}

// detFloatFunc checks one function body for the lane-split reduction
// shape.
func detFloatFunc(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: for every loop, the set of float accumulators it updates.
	type loopAccs struct {
		loop ast.Node
		accs map[*types.Var]bool
	}
	var loops []loopAccs
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		accs := make(map[*types.Var]bool)
		ast.Inspect(loopBody, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.Info.Uses[id].(*types.Var)
				if !ok || !isFloat(v.Type()) {
					continue
				}
				// Loop-carried only: the accumulator must outlive the loop.
				if v.Pos() >= n.Pos() && v.Pos() <= n.End() {
					continue
				}
				switch {
				case as.Tok == token.ADD_ASSIGN:
					accs[v] = true
				case as.Tok == token.ASSIGN && i < len(as.Rhs):
					// s = s + e counts too.
					if exprLeavesContain(as.Rhs[i], v, pass.Info) {
						accs[v] = true
					}
				}
			}
			return true
		})
		if len(accs) >= 2 {
			loops = append(loops, loopAccs{loop: n, accs: accs})
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	// Pass 2: a maximal + tree outside the loop combining >=2 of one
	// loop's accumulators is the reassociated fold.
	inspectStack([]*ast.File{wrapBody(body)}, func(n ast.Node, stack []ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.ADD {
			return true
		}
		if len(stack) > 0 {
			if p, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && p.Op == token.ADD {
				return true // only report the outermost + tree
			}
		}
		leaves := addLeaves(be, nil)
		for _, la := range loops {
			if be.Pos() >= la.loop.Pos() && be.End() <= la.loop.End() {
				continue // combining inside the loop body is a different shape
			}
			var hit []string
			seen := make(map[*types.Var]bool)
			for _, leaf := range leaves {
				id, ok := leaf.(*ast.Ident)
				if !ok {
					continue
				}
				if v, ok := pass.Info.Uses[id].(*types.Var); ok && la.accs[v] && !seen[v] {
					seen[v] = true
					hit = append(hit, v.Name())
				}
			}
			if len(hit) >= 2 {
				sort.Strings(hit)
				pass.Report(be.Pos(),
					"reassociated float reduction: loop accumulators %s are combined after the loop; "+
						"the split summation order breaks the bitwise class (keep one accumulator)",
					strings.Join(hit, ", "))
				return false
			}
		}
		return true
	})
}

// wrapBody lets inspectStack (which takes files) walk a single block.
func wrapBody(body *ast.BlockStmt) *ast.File {
	return &ast.File{
		Name:  ast.NewIdent("_"),
		Decls: []ast.Decl{&ast.FuncDecl{Name: ast.NewIdent("_"), Type: &ast.FuncType{}, Body: body}},
	}
}

// addLeaves flattens a + tree into its leaf expressions.
func addLeaves(e ast.Expr, out []ast.Expr) []ast.Expr {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			out = addLeaves(e.X, out)
			return addLeaves(e.Y, out)
		}
	case *ast.ParenExpr:
		return addLeaves(e.X, out)
	}
	return append(out, e)
}

// exprLeavesContain reports whether v appears as an identifier leaf of
// the + tree rooted at e.
func exprLeavesContain(e ast.Expr, v *types.Var, info *types.Info) bool {
	for _, leaf := range addLeaves(e, nil) {
		if id, ok := leaf.(*ast.Ident); ok && info.Uses[id] == v {
			return true
		}
	}
	return false
}

// isFloat reports whether t is float32 or float64.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Float64 || b.Kind() == types.Float32)
}

// isPkgFunc reports whether call invokes the named function of the
// named (standard-library) package.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkg
}
