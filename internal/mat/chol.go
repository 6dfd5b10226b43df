package mat

import (
	"errors"
	"math"

	rt "saco/internal/runtime"
)

// ErrNotPD reports that a matrix handed to Cholesky was not (numerically)
// positive definite.
var ErrNotPD = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix. The strict upper triangle of the
// result is zero. It is used by tests to validate Gram matrices and by
// diagnostics that solve small regularized systems.
//
// The panel update below the pivot — one dot product per row i, all
// independent — runs on the shared-memory pool at GOMAXPROCS width for
// large matrices (Cholesky sits outside the solver hot paths and the
// simulated ranks, so the per-solve Exec knob does not reach it). Each
// L[i,j] keeps its sequential summation order, so the factor is bitwise
// identical for every worker count.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.R
	if a.C != n {
		return nil, errors.New("mat: Cholesky requires a square matrix")
	}
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPD
		}
		d = math.Sqrt(d)
		lj[j] = d
		rt.For(0, n-(j+1), 128, func(lo, hi int) {
			for i := j + 1 + lo; i < j+1+hi; i++ {
				li := l.Row(i)
				s := a.At(i, j)
				for k := 0; k < j; k++ {
					s -= li[k] * lj[k]
				}
				li[j] = s / d
			}
		})
	}
	return l, nil
}

// CholeskySolve solves A·x = b given the Cholesky factor L of A,
// overwriting nothing; it returns a fresh solution vector.
func CholeskySolve(l *Dense, b []float64) []float64 {
	n := l.R
	if len(b) != n {
		panic("mat: CholeskySolve length mismatch")
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
