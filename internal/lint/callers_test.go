package lint_test

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"saco/internal/lint"
	"saco/internal/lint/linttest"
)

// oracles are the exported internal functions and methods (keyed
// path.Type.Method) that stay with no non-test caller because a test
// uses them as its oracle or tool; each entry names that test.
var oracles = map[string]string{
	"saco/internal/core.LassoDualityGap":       "TestQuickLassoGapCertificate",
	"saco/internal/mat.EigSymJacobi":           "TestLargestEigSymMatchesJacobi",
	"saco/internal/mat.MaxAbsDiff":             "TestCSRtoCSCRoundTrip",
	"saco/internal/sparse.NewCOO":              "TestCOOBuildAndDuplicates",
	"saco/internal/sparse.COO.Add":             "TestCOOBuildAndDuplicates",
	"saco/internal/sparse.COO.NNZ":             "TestAccessorsAndConversions",
	"saco/internal/sparse.COO.ToCSC":           "TestAccessorsAndConversions",
	"saco/internal/sparse.CSR.SliceRows":       "TestRowsToCSCMatchesSliceRows",
	"saco/internal/sparse.CSR.ToDense":         "TestCSRtoCSCRoundTrip",
	"saco/internal/mpi.Comm.Barrier":           "TestTornConnectionCleanError",
	"saco/internal/mpi/faulty.Injector.Sends":  "TestLassoKillRestartBitwise",
	"saco/internal/mpi/faulty.Injector.Fired":  "TestLassoKillRestartBitwise",
	"saco/internal/stream.Dataset.Blocks":      "TestBuildMatchesInMemoryRead",
	"saco/internal/stream.BlockIterator.Next":  "TestBuildMatchesInMemoryRead",
	"saco/internal/stream.BlockIterator.Block": "TestBuildMatchesInMemoryRead",
	"saco/internal/stream.BlockIterator.Err":   "TestBuildMatchesInMemoryRead",
	"saco/internal/stream.BlockIterator.Reset": "TestBuildMatchesInMemoryRead",
}

// testSupport packages exist for tests; their exported functions are
// exempt.
var testSupport = map[string]bool{
	"saco/internal/testmatrix":    true,
	"saco/internal/lint/linttest": true,
}

// TestInternalFuncsHaveCallers keeps internal/ honest: every exported
// package-level function and every exported method of an exported type
// under internal/ is referenced by a non-test file of the module or of
// benchmarks/, or is an oracle listed above. A method that satisfies an
// interface is exempt (the interface is its caller), and a method of a
// type the facade aliases also counts as called when README.md shows
// it. A name only tests reach is surface nobody uses; delete it.
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
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}

	referenced := map[string]bool{}
	ifaces := map[string][]*types.Interface{} // method name -> interfaces declaring it
	// errors.Is/As/Unwrap assert this interface inside their bodies,
	// which export data does not show.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	addIface(ifaces, types.NewInterfaceType([]*types.Func{unwrap}, nil))
	facade := map[string]bool{} // path.Type of every facade alias target
	for _, p := range append(mod, bench...) {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				referenced[funcKey(fn.Origin())] = true
			}
		}
		for _, tv := range p.Info.Types {
			addIface(ifaces, tv.Type)
		}
		for _, pkg := range append([]*types.Package{p.Pkg}, p.Pkg.Imports()...) {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(ifaces, tn.Type())
					if p.Path == "saco" && pkg == p.Pkg && tn.IsAlias() {
						if named := recvNamed(tn.Type()); named != nil {
							facade[typeKey(named)] = true
						}
					}
				}
			}
		}
	}

	seen := map[string]bool{}
	check := func(key string) {
		seen[key] = true
		_, oracle := oracles[key]
		switch {
		case referenced[key] && oracle:
			t.Errorf("%s has a non-test caller now; drop it from the oracle list", key)
		case !referenced[key] && !oracle:
			t.Errorf("%s: no non-test file of the module or of benchmarks/ references it; delete it, or list the oracle test that uses it", key)
		}
	}
	for _, p := range mod {
		if !strings.HasPrefix(p.Path, "saco/internal/") {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !testSupport[p.Path] {
					check(funcKey(obj))
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for m := range named.Methods() {
					if !m.Exported() || satisfies(named, m.Name(), ifaces) {
						continue
					}
					key := funcKey(m)
					if facade[typeKey(named)] && regexp.MustCompile(`\.`+m.Name()+`\b`).Match(readme) {
						referenced[key] = true
					}
					check(key)
				}
			}
		}
	}
	for key := range oracles {
		if !seen[key] {
			t.Errorf("oracle list names %s, which is not an exported internal function or method", key)
		}
	}
}

// funcKey names a function path.Name and a method path.Type.Name: the
// export-data objects of one declaration differ per importing package.
func funcKey(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		if named := recvNamed(recv.Type()); named != nil {
			return typeKey(named) + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func typeKey(named *types.Named) string {
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// recvNamed returns the named type behind t and one pointer, if any.
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	if named != nil && named.Obj().Pkg() == nil {
		return nil // error's method belongs to no package
	}
	return named
}

// addIface indexes a non-generic interface type by its method names.
func addIface(ifaces map[string][]*types.Interface, t types.Type) {
	if named, ok := types.Unalias(t).(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || !it.IsMethodSet() {
		return
	}
	for m := range it.Methods() {
		ifaces[m.Name()] = append(ifaces[m.Name()], it)
	}
}

// satisfies reports whether T or *T implements an interface that
// declares the method name.
func satisfies(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
