package lint_test

import (
	"path/filepath"
	"strconv"
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// TestNoProductCodeImportsSimd keeps internal/simd folded: its BLAS-1
// loops live in mat and sparse, and what is left (MergeDot and the
// Kernels shim) is there for benchmarks/, which pins it, and for tests,
// which use MergeDot as an oracle. No non-test file of the main module
// may import it, so no product caller grows back before the benchmark
// refresh deletes the package.
func TestNoProductCodeImportsSimd(t *testing.T) {
	const simd = "saco/internal/simd"
	root := linttest.ModuleRoot(t)
	mod, err := lint.Load(root, "saco/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, p := range mod {
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == simd {
					name, _ := filepath.Rel(root, p.Fset.Position(f.Package).Filename)
					t.Errorf("%s imports %s; call the loops in internal/mat or internal/sparse instead", name, simd)
				}
			}
		}
	}
}
