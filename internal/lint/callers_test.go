package lint_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// oracles are the exported internal functions that stay with no
// non-test caller because a test uses them as its oracle; each entry
// names that test.
var oracles = map[string]string{
	"saco/internal/core.LassoDualityGap": "TestQuickLassoGapCertificate",
	"saco/internal/mat.EigSymJacobi":     "TestLargestEigSymMatchesJacobi",
	"saco/internal/mat.MaxAbsDiff":       "TestCSRtoCSCRoundTrip",
	"saco/internal/sparse.NewCOO":        "TestCOOBuildAndDuplicates",
}

// testSupport packages exist for tests; their exports are exempt.
var testSupport = map[string]bool{
	"saco/internal/testmatrix":    true,
	"saco/internal/lint/linttest": true,
}

// TestInternalFuncsHaveCallers keeps internal/ honest: every exported
// package-level function under internal/ is referenced by a non-test
// file of the module or of benchmarks/, or is an oracle listed above. A
// name only tests reach is surface nobody uses; delete it. Methods are
// out of scope.
func TestInternalFuncsHaveCallers(t *testing.T) {
	root := linttest.ModuleRoot(t)
	mod, err := lint.Load(root, "saco/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	bench, err := lint.Load(filepath.Join(root, "benchmarks"), "./...")
	if err != nil {
		t.Fatalf("loading benchmarks/: %v", err)
	}

	referenced := map[string]bool{}
	for _, p := range append(mod, bench...) {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Signature().Recv() == nil {
				referenced[funcKey(fn.Origin())] = true
			}
		}
	}

	seen := map[string]bool{}
	for _, p := range mod {
		if !strings.HasPrefix(p.Path, "saco/internal/") || testSupport[p.Path] {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			key := funcKey(fn)
			seen[key] = true
			_, oracle := oracles[key]
			switch {
			case referenced[key] && oracle:
				t.Errorf("%s has a non-test caller now; drop it from the oracle list", key)
			case !referenced[key] && !oracle:
				t.Errorf("%s: no non-test file of the module or of benchmarks/ references it; delete it, or list the oracle test that uses it", key)
			}
		}
	}
	for key := range oracles {
		if !seen[key] {
			t.Errorf("oracle list names %s, which is not an exported internal function", key)
		}
	}
}

func funcKey(fn *types.Func) string { return fn.Pkg().Path() + "." + fn.Name() }
