package datagen

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"saco/internal/mat"
	"saco/internal/rng"
)

func TestRegressionShapeAndPlant(t *testing.T) {
	d := Regression("test", 1, 200, 100, 0.1, 5, 0.01)
	m, n := d.Dims()
	if m != 200 || n != 100 {
		t.Fatalf("dims %dx%d", m, n)
	}
	if len(d.B) != 200 || len(d.XTrue) != 100 {
		t.Fatal("targets or plant missing")
	}
	nnzPlant := 0
	for _, v := range d.XTrue {
		if v != 0 {
			nnzPlant++
		}
	}
	if nnzPlant != 5 {
		t.Fatalf("planted support %d, want 5", nnzPlant)
	}
	// With tiny noise, ||A·x* − b|| must be small relative to ||b||.
	res := make([]float64, m)
	d.CSR.MulVec(d.XTrue, res)
	mat.Axpy(-1, d.B, res)
	if mat.Nrm2(res)/mat.Nrm2(d.B) > 0.2 {
		t.Fatalf("planted model does not explain targets: rel res %v", mat.Nrm2(res)/mat.Nrm2(d.B))
	}
}

func TestDensityMatchesRequest(t *testing.T) {
	d := Regression("test", 2, 500, 400, 0.05, 5, 0)
	got := d.Density()
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("density %v, want about 0.05", got)
	}
	// Every row has at least one nonzero.
	for i := 0; i < 500; i++ {
		if d.CSR.RowNNZ(i) == 0 {
			t.Fatalf("row %d empty", i)
		}
	}
}

func TestClassificationLabels(t *testing.T) {
	d := Classification("test", 3, 300, 50, 0.2, 0.1)
	pos, neg := 0, 0
	for _, b := range d.B {
		switch b {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %v not in {-1,+1}", b)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate classes: +%d -%d", pos, neg)
	}
	// The planted separator should classify most points correctly
	// (approximately separable data).
	margins := make([]float64, 300)
	d.CSR.MulVec(d.XTrue, margins)
	correct := 0
	for i, v := range margins {
		if v*d.B[i] > 0 {
			correct++
		}
	}
	if correct < 240 {
		t.Fatalf("planted separator gets only %d/300", correct)
	}
}

// TestDenseVariants: the dense generators store every entry, in
// ascending column order within each row.
func TestDenseVariants(t *testing.T) {
	dr := DenseRegression("test", 4, 50, 30, 3, 0.01)
	if dr.NNZ() != 50*30 || dr.Density() != 1 {
		t.Fatalf("DenseRegression stores %d of %d entries", dr.NNZ(), 50*30)
	}
	for i := 0; i < 50; i++ {
		for k, j := range dr.CSR.ColIdx[dr.CSR.RowPtr[i]:dr.CSR.RowPtr[i+1]] {
			if j != k {
				t.Fatalf("row %d stores column %d at position %d", i, j, k)
			}
		}
	}
	dc := DenseClassification("test", 5, 60, 20, 0.05)
	if dc.NNZ() != 60*20 {
		t.Fatal("DenseClassification not dense")
	}
	if len(dc.B) != 60 {
		t.Fatal("labels missing")
	}
}

func TestViewsAgree(t *testing.T) {
	d := Regression("test", 6, 40, 25, 0.2, 3, 0)
	cols := d.Cols()
	rows := d.Rows()
	x := make([]float64, 25)
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	y1 := make([]float64, 40)
	y2 := make([]float64, 40)
	cols.MulVec(x, y1)
	rows.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("views disagree at %d", i)
		}
	}
}

// TestAsCSRDensify: a dense dataset's CSR holds the values the
// generator drew, row-major, before it planted the model.
func TestAsCSRDensify(t *testing.T) {
	d := DenseRegression("test", 7, 10, 8, 2, 0)
	a := d.AsCSR()
	if a.M != 10 || a.N != 8 || a != d.Rows() {
		t.Fatal("AsCSR dims")
	}
	r := rng.New(7)
	for p, v := range a.Val {
		if want := r.NormFloat64(); v != want {
			t.Fatalf("entry %d = %v, want the %d-th draw %v", p, v, p, want)
		}
	}
}

func TestReplicaTable(t *testing.T) {
	for _, name := range ReplicaNames() {
		d, err := Replica(name, 0.02, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, n := d.Dims()
		if m < 4 || n < 4 {
			t.Fatalf("%s: degenerate dims %dx%d", name, m, n)
		}
		if len(d.B) != m {
			t.Fatalf("%s: %d labels for %d rows", name, len(d.B), m)
		}
		wantM, wantN, origM, origN, density, err := ReplicaInfo(name)
		if err != nil {
			t.Fatal(err)
		}
		if wantM <= 0 || wantN <= 0 || origM < wantM || origN < wantN {
			t.Fatalf("%s: replica info inconsistent", name)
		}
		if density <= 0 || density > 1 {
			t.Fatalf("%s: density %v", name, density)
		}
	}
}

func TestReplicaDeterministic(t *testing.T) {
	a, err := Replica("news20", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replica("news20", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatal("replica not deterministic")
	}
	for i := range a.CSR.Val {
		if a.CSR.Val[i] != b.CSR.Val[i] {
			t.Fatal("replica values differ")
		}
	}
}

func TestReplicaErrors(t *testing.T) {
	if _, err := Replica("nope", 1, 1); err == nil {
		t.Fatal("expected unknown-name error")
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Replica("url", scale, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("scale must be finite and positive, got %v", scale)) {
			t.Fatalf("scale %v: error %v; want the bad-scale error naming it", scale, err)
		}
	}
	if _, _, _, _, _, err := ReplicaInfo("nope"); err == nil {
		t.Fatal("expected unknown-name error")
	}
}

func TestReplicaDensityPreserved(t *testing.T) {
	d, err := Replica("news20", 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Density(); math.Abs(got-0.0013) > 0.0013 {
		t.Fatalf("news20 replica density %v, want about 0.0013", got)
	}
}
