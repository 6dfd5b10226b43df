package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	a := NewDense(r, c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func TestDenseBasics(t *testing.T) {
	a := NewDense(2, 3)
	a.Set(0, 1, 5)
	a.Set(1, 2, -2)
	if a.At(0, 1) != 5 || a.At(1, 2) != -2 || a.At(0, 0) != 0 {
		t.Fatal("Set/At failed")
	}
	row := a.Row(1)
	if len(row) != 3 || row[2] != -2 {
		t.Fatalf("Row = %v", row)
	}
	b := a.Clone()
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("Clone not equal")
	}
	b.Set(0, 0, 1)
	if MaxAbsDiff(a, b) != 1 || a.At(0, 0) != 0 {
		t.Fatal("Clone aliases original")
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestNewDenseDataValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestGemvAgainstManual(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	y := []float64{10, 20}
	Gemv(2, a, x, 1, y) // y = 2*A*x + y = 2*[-2,-2] + [10,20]
	if y[0] != 6 || y[1] != 16 {
		t.Fatalf("Gemv = %v", y)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{1.5, 2})
	if d := MaxAbsDiff(a, b); d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if math.IsNaN(MaxAbsDiff(a, a)) || MaxAbsDiff(a, a) != 0 {
		t.Fatal("self diff nonzero")
	}
}
