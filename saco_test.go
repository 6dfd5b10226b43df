package saco_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"saco"
)

// TestFacadeNamesHaveCallers keeps the facade honest: every exported
// function of saco.go must be referenced as saco.<Name> under cmd/,
// examples/ or in README.md, or be called by a facade function that is
// (Predict, by Accuracy). A name only tests reach is surface nobody
// uses; delete it rather than list it here.
func TestFacadeNamesHaveCallers(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "saco.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string][]string{} // facade function -> facade functions its body calls
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() {
			continue
		}
		calls[fn.Name.Name] = nil
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					calls[fn.Name.Name] = append(calls[fn.Name.Name], id.Name)
				}
			}
			return true
		})
	}

	var users strings.Builder
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	users.Write(readme)
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			users.Write(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	called := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		if _, facade := calls[name]; !facade || called[name] {
			return
		}
		called[name] = true
		for _, callee := range calls[name] {
			mark(callee)
		}
	}
	for name := range calls {
		if regexp.MustCompile(`\bsaco\.` + name + `\b`).MatchString(users.String()) {
			mark(name)
		}
	}
	var orphans []string
	for name := range calls {
		if !called[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("exported saco.go functions with no caller under cmd/, examples/ or README.md: %v", orphans)
	}
}

// TestPublicAPILassoRoundTrip exercises the whole public surface the way
// a downstream user would: generate data, pick λ, solve classically and
// with SA, compare.
func TestPublicAPILassoRoundTrip(t *testing.T) {
	data := saco.Regression("demo", 1, 300, 150, 0.1, 8, 0.05)
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
	opt := saco.LassoOptions{Lambda: lambda, BlockSize: 4, Iters: 500, Accelerated: true, Seed: 2}
	classic, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.S = 50
	sa, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(classic.Objective-sa.Objective) > 1e-9*math.Abs(classic.Objective) {
		t.Fatalf("SA objective %v != classic %v", sa.Objective, classic.Objective)
	}
	if classic.NNZ() == 0 {
		t.Fatal("no features selected")
	}
}

func TestPublicAPISVMAndSimulation(t *testing.T) {
	data := saco.Classification("demo", 3, 200, 80, 0.2, 0.05)
	opt := saco.SVMOptions{Lambda: 1, Loss: saco.SVML1, Iters: 3000, Seed: 4}
	seq, err := saco.SVM(data.Rows(), data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Gap < -1e-9 {
		t.Fatalf("negative duality gap %v", seq.Gap)
	}
	// Simulated cluster: SA variant must match and communicate less.
	classic, err := saco.DistSVM(saco.MatrixSource(data.AsCSR()), data.B, opt, saco.Cluster{P: 4, Machine: saco.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	opt.S = 32
	sa, err := saco.DistSVM(saco.MatrixSource(data.AsCSR()), data.B, opt, saco.Cluster{P: 4, Machine: saco.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	if sa.Stats.TotalMsgs() >= classic.Stats.TotalMsgs() {
		t.Fatal("SA did not reduce message count")
	}
	if math.Abs(sa.Gap-classic.Gap) > 1e-6*(1+math.Abs(classic.Gap)) {
		t.Fatalf("simulated SA gap %v != classic %v", sa.Gap, classic.Gap)
	}
}

func TestPublicAPIDistLassoMachines(t *testing.T) {
	data := saco.Regression("demo", 5, 200, 100, 0.1, 6, 0.05)
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
	opt := saco.LassoOptions{Lambda: lambda, Iters: 200, Accelerated: true, Seed: 6, S: 16}
	for _, name := range []string{"cray", "ethernet", "spark"} {
		m, err := saco.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := saco.DistLasso(saco.MatrixSource(data.AsCSR()), data.B, opt, saco.Cluster{P: 4, Machine: m})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if res.ModeledSeconds() <= 0 {
			t.Fatalf("%s: no modeled time", m.Name)
		}
	}
}

func TestPublicAPILIBSVMFiles(t *testing.T) {
	data := saco.Classification("io", 7, 40, 20, 0.3, 0.1)
	path := filepath.Join(t.TempDir(), "d.svm")
	if err := saco.SaveLIBSVM(path, data.AsCSR(), data.B); err != nil {
		t.Fatal(err)
	}
	a, b, err := saco.LoadLIBSVM(path, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.M != 40 || a.N != 20 || len(b) != 40 {
		t.Fatalf("loaded %dx%d with %d labels", a.M, a.N, len(b))
	}
}

func TestPublicAPIBuilders(t *testing.T) {
	if _, err := saco.Replica("news20", 0.02, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := saco.Replica("bogus", 1, 1); err == nil {
		t.Fatal("expected error for unknown replica")
	}
}

func TestPublicAPIRegularizers(t *testing.T) {
	data := saco.Regression("reg", 9, 120, 60, 0.15, 5, 0.05)
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)
	for _, reg := range []saco.Regularizer{
		saco.L1{Lambda: lambda},
		saco.ElasticNet{Lambda: lambda, Alpha: 0.8},
	} {
		res, err := saco.Lasso(data.Cols(), data.B, saco.LassoOptions{
			Reg: reg, Iters: 300, BlockSize: 2, Accelerated: true, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", reg.Name(), err)
		}
		if math.IsNaN(res.Objective) {
			t.Fatalf("%s: NaN objective", reg.Name())
		}
	}
}
