package sparse

import (
	"math/rand"
	"testing"
)

// Direct tests of the accessor and conversion methods that the solver
// packages exercise only indirectly.
func TestAccessorsAndConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := randCSR(rng, 9, 7, 0.4)
	if m, n := a.Dims(); m != 9 || n != 7 {
		t.Fatal("CSR.Dims")
	}
	if a.RowNNZ(0) != a.RowPtr[1]-a.RowPtr[0] {
		t.Fatal("RowNNZ")
	}

	c := a.ToCSC()
	if m, n := c.Dims(); m != 9 || n != 7 {
		t.Fatal("CSC.Dims")
	}
	if c.ColNNZ(3) != c.ColPtr[4]-c.ColPtr[3] {
		t.Fatal("ColNNZ")
	}

	coo := NewCOO(3, 2)
	coo.Add(1, 1, 4)
	if coo.NNZ() != 1 {
		t.Fatal("COO.NNZ")
	}
	if coo.ToCSC().ToCSR().ToDense().At(1, 1) != 4 {
		t.Fatal("COO.ToCSC")
	}
}

func TestCSCMulVecBothWays(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randCSR(rng, 12, 8, 0.35)
	c := a.ToCSC()
	x := randVec(rng, 8)
	y1 := make([]float64, 12)
	y2 := make([]float64, 12)
	a.MulVec(x, y1)
	c.MulVec(x, y2)
	for i := range y1 {
		if !approxEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("CSC.MulVec[%d]", i)
		}
	}
}

func TestDenseViewDimsAndMulVec(t *testing.T) {
	dr := &CSR{M: 2, N: 3, RowPtr: []int{0, 3, 6}, ColIdx: []int{0, 1, 2, 0, 1, 2}, Val: []float64{1, 2, 3, 4, 5, 6}}
	dc := dr.ToCSC()
	if m, n := dc.Dims(); m != 2 || n != 3 {
		t.Fatal("dense CSC.Dims")
	}
	if m, n := dr.Dims(); m != 2 || n != 3 {
		t.Fatal("dense CSR.Dims")
	}
	y := make([]float64, 2)
	dc.MulVec([]float64{1, 1, 1}, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("dense CSC.MulVec = %v", y)
	}
	x := make([]float64, 3)
	dr.RowTAxpy(1, 2, x)
	if x[0] != 8 || x[1] != 10 || x[2] != 12 {
		t.Fatalf("dense CSR.RowTAxpy = %v", x)
	}
	y2 := make([]float64, 2)
	dr.MulVec([]float64{1, 0, 0}, y2)
	if y2[0] != 1 || y2[1] != 4 {
		t.Fatalf("dense CSR.MulVec = %v", y2)
	}
}

func TestZeroCoefficientFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randCSR(rng, 10, 6, 0.5)
	c := a.ToCSC()
	v := make([]float64, 10)
	// Zero coefficients and zero x entries exercise the skip branches.
	c.ColMulAdd([]int{0, 1}, []float64{0, 0}, v)
	for _, e := range v {
		if e != 0 {
			t.Fatal("ColMulAdd with zero coef changed v")
		}
	}
}
