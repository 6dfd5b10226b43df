package saco_test

import (
	"math"
	"path/filepath"
	"testing"

	"saco"
)

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
	for _, m := range []saco.Machine{saco.CrayXC30(), saco.EthernetCluster(), saco.SparkLike()} {
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
	coo := saco.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 2)
	a := coo.ToCSR()
	res, err := saco.Lasso(a.ToCSC(), []float64{1, 2}, saco.LassoOptions{Lambda: 0.01, Iters: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 0.5*(1+4) {
		t.Fatalf("objective %v did not improve on x=0", res.Objective)
	}
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
