package mat

import (
	"fmt"

	"saco/internal/simd"
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

// T returns a newly allocated transpose of a.
func (a *Dense) T() *Dense {
	b := NewDense(a.C, a.R)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		for j, v := range row {
			b.Data[j*b.C+i] = v
		}
	}
	return b
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

// Equal reports whether a and b have the same shape and elements.
func (a *Dense) Equal(b *Dense) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
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

// GemvT computes y = alpha*Aᵀ*x + beta*y.
// A is r-by-c, x has length r, y has length c.
func GemvT(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	if len(x) != a.R || len(y) != a.C {
		panic(fmt.Sprintf("mat: GemvT shape mismatch A=%dx%d len(x)=%d len(y)=%d", a.R, a.C, len(x), len(y)))
	}
	if beta != 1 {
		if beta == 0 {
			Fill(y, 0)
		} else {
			Scal(beta, y)
		}
	}
	for i := 0; i < a.R; i++ {
		Axpy(alpha*x[i], a.Row(i), y)
	}
}

// Gemm computes C = alpha*A*B + beta*C.
// A is m-by-k, B is k-by-n, C is m-by-n. Uses an ikj loop order so the
// inner loop streams rows, which is the cache-friendly ordering for
// row-major storage.
func Gemm(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.C != b.R || c.R != a.R || c.C != b.C {
		panic(fmt.Sprintf("mat: Gemm shape mismatch A=%dx%d B=%dx%d C=%dx%d", a.R, a.C, b.R, b.C, c.R, c.C))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			Scal(beta, c.Data)
		}
	}
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(alpha*av, b.Row(k), crow)
		}
	}
}

// GemmTN computes C = alpha*Aᵀ*B + beta*C where A is k-by-m and B is k-by-n,
// so C is m-by-n. This is the kernel behind Gram-matrix assembly YᵀY.
func GemmTN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.R != b.R || c.R != a.C || c.C != b.C {
		panic(fmt.Sprintf("mat: GemmTN shape mismatch A=%dx%d B=%dx%d C=%dx%d", a.R, a.C, b.R, b.C, c.R, c.C))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			Scal(beta, c.Data)
		}
	}
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(alpha*av, brow, c.Row(i))
		}
	}
}

// Syrk computes the symmetric product C = alpha*AᵀA + beta*C for
// A k-by-n, C n-by-n, filling both triangles. Exploiting symmetry halves
// the flops relative to GemmTN(A, A); the paper notes the same trick halves
// the SA Gram message size (§III footnote 3).
func Syrk(alpha float64, a *Dense, beta float64, c *Dense) {
	n := a.C
	if c.R != n || c.C != n {
		panic(fmt.Sprintf("mat: Syrk shape mismatch A=%dx%d C=%dx%d", a.R, a.C, c.R, c.C))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			Scal(beta, c.Data)
		}
	}
	for k := 0; k < a.R; k++ {
		row := a.Row(k)
		for i := 0; i < n; i++ {
			av := row[i]
			if av == 0 {
				continue
			}
			simd.Axpy(alpha*av, row[i:], c.Row(i)[i:])
		}
	}
	c.MirrorUpper()
}

// SubmatrixCopy copies the block a[r0:r0+h, c0:c0+w] into dst (h-by-w).
func SubmatrixCopy(dst *Dense, a *Dense, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+dst.R > a.R || c0+dst.C > a.C {
		panic("mat: SubmatrixCopy out of range")
	}
	for i := 0; i < dst.R; i++ {
		copy(dst.Row(i), a.Row(r0 + i)[c0:c0+dst.C])
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
