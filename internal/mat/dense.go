package mat

import (
	"fmt"
)

// Dense is a row-major dense matrix. The zero value is an empty matrix;
// use NewDense to allocate a sized one.
type Dense struct {
	R, C int
	Data []float64 // len R*C, row-major
}

// NewDense allocates an r-by-c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewDense negative dimension %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: NewDenseData length %d != %d*%d", len(data), r, c))
	}
	return &Dense{R: r, C: c, Data: data}
}

// At returns the element at row i, column j.
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.C+j] }

// Set assigns the element at row i, column j.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.C+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.C : (i+1)*a.C] }

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.R, a.C)
	copy(b.Data, a.Data)
	return b
}

// Zero sets every element to 0.
func (a *Dense) Zero() {
	for i := range a.Data {
		a.Data[i] = 0
	}
}

// MirrorUpper copies the strict upper triangle onto the lower one,
// completing a symmetric matrix whose upper half was accumulated
// incrementally (the out-of-core Gram assembly of package stream).
func (a *Dense) MirrorUpper() {
	for i := 1; i < a.R; i++ {
		for j := 0; j < i; j++ {
			a.Data[i*a.C+j] = a.Data[j*a.C+i]
		}
	}
}

// Gemv computes y = alpha*A*x + beta*y.
// A is r-by-c, x has length c, y has length r.
func Gemv(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	if len(x) != a.C || len(y) != a.R {
		panic(fmt.Sprintf("mat: Gemv shape mismatch A=%dx%d len(x)=%d len(y)=%d", a.R, a.C, len(x), len(y)))
	}
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = alpha*s + beta*y[i]
	}
}

// MaxAbsDiff returns max |a_ij - b_ij|; it panics on shape mismatch.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.R != b.R || a.C != b.C {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
