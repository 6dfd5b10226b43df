// TestSourceParity lives in the external test package: it drives the
// dist solvers from a shard-backed Dataset, and dist itself imports
// stream for the checkpoint write seam, so an in-package test would be
// an import cycle.
package stream_test

import (
	"bytes"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/libsvm"
	"saco/internal/mat"
	"saco/internal/sparse"
	"saco/internal/stream"
)

// sourceFixture mirrors the in-package buildFixture through the
// exported API: a synthetic regression problem ingested out of core.
func sourceFixture(t *testing.T, m, n, blockRows int) (*stream.Dataset, *sparse.CSR, []float64) {
	t.Helper()
	d := datagen.Regression("fixture", 7, m, n, 0.1, 8, 0.1)
	a := d.AsCSR()
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, a, d.B); err != nil {
		t.Fatal(err)
	}
	ds, err := stream.Build(&buf, t.TempDir(), stream.BuildOptions{BlockRows: blockRows, Features: n})
	if err != nil {
		t.Fatal(err)
	}
	return ds, a, d.B
}

// TestSourceParity: the out-of-core dist.Source blocks must be
// structurally identical to the in-memory slices, and a simulated
// cluster run fed from shards must match one fed from the resident CSR.
func TestSourceParity(t *testing.T) {
	ds, a, b := sourceFixture(t, 230, 40, 32)

	for _, r := range [][2]int{{0, 230}, {57, 101}, {96, 128}, {100, 100}} {
		want := a.SliceRows(r[0], r[1]).ToCSC()
		got, err := ds.RowsCSC(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if mat.MaxAbsDiff(want.ToCSR().ToDense(), got.ToCSR().ToDense()) != 0 {
			t.Fatalf("RowsCSC[%d,%d) differs", r[0], r[1])
		}
	}
	for _, r := range [][2]int{{0, 40}, {13, 27}} {
		want := a.SliceCols(r[0], r[1])
		got, err := ds.ColsCSR(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if mat.MaxAbsDiff(want.ToDense(), got.ToDense()) != 0 {
			t.Fatalf("ColsCSR[%d,%d) differs", r[0], r[1])
		}
	}

	opt := core.LassoOptions{Lambda: 0.5, Iters: 60, S: 4, BlockSize: 2, Seed: 3}
	cl := dist.Options{P: 4}
	mem, err := dist.Lasso(a, b, opt, cl)
	if err != nil {
		t.Fatal(err)
	}
	str, err := dist.LassoFrom(ds, b, opt, cl)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Objective != str.Objective {
		t.Fatalf("simulated objective %.17g != %.17g", str.Objective, mem.Objective)
	}
	for j := range mem.X {
		if mem.X[j] != str.X[j] {
			t.Fatalf("simulated x[%d] differs", j)
		}
	}

	svmOpt := core.SVMOptions{Lambda: 1, Iters: 40, S: 4, Seed: 5}
	labels := make([]float64, len(b))
	for i, v := range b {
		if v >= 0 {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}
	memSVM, err := dist.SVM(a, labels, svmOpt, cl)
	if err != nil {
		t.Fatal(err)
	}
	strSVM, err := dist.SVMFrom(ds, labels, svmOpt, cl)
	if err != nil {
		t.Fatal(err)
	}
	if memSVM.Gap != strSVM.Gap {
		t.Fatalf("simulated gap %.17g != %.17g", strSVM.Gap, memSVM.Gap)
	}
	for j := range memSVM.X {
		if memSVM.X[j] != strSVM.X[j] {
			t.Fatalf("simulated svm x[%d] differs", j)
		}
	}
}
