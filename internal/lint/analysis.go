package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. It mirrors the
// golang.org/x/tools/go/analysis shape so the checks port mechanically
// if the repo ever takes that dependency.
type Analyzer struct {
	// Name is the analyzer's identifier: what savet prints, what
	// //saco:nolint comments reference, and what -only selects.
	Name string
	// Doc is a one-paragraph description shown by `savet -list`.
	Doc string
	// Run performs the check on one package and reports findings via
	// pass.Report.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (comments retained).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the package's type-checking results.
	Info *types.Info
	// Path is the import path the package is analyzed as. Analyzers
	// scope themselves by this, which is also what lets test fixtures
	// masquerade as in-tree packages.
	Path string

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way savet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// inspectStack walks every file, calling fn with each node and the
// stack of its ancestors (outermost first, not including n). If fn
// returns false the node's children are skipped. Several analyzers
// need ancestry (is this call statement-discarded?), which plain
// ast.Inspect does not provide.
func inspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}
