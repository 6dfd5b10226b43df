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
