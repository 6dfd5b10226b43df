package mat

import (
	"fmt"
	"math"
)

// The O(n) hot loops below (Dot, Axpy, Scal, Nrm2Sq, ScatterAxpy) are
// the bitwise reference: the deterministic backend matrix is defined by
// their left-to-right summation orders. Do not "improve" them: a
// lane-split or fused reduction changes every trajectory (and detfloat
// flags it).

// Dot returns the inner product of x and y, accumulated left to right.
// It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place; alpha == 0 leaves y untouched
// (see the package's alpha == 0 contract).
// It panics if the lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow
// and underflow by scaling (as in the reference BLAS dnrm2).
func Nrm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		scale, ssq = nrm2Acc(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// nrm2Acc folds v into Nrm2's running state: the norm so far is
// scale·√ssq, with scale the largest |v| seen.
func nrm2Acc(scale, ssq, v float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// Nrm2Sq returns acc + Σ x[i]², the squared Euclidean norm of x added
// term by term onto acc: the out-of-core column kernels thread their
// running sum through it across row blocks, everyone else passes 0.
// Unlike Nrm2 it does not guard against overflow; the solvers use it on
// well-scaled residuals where the straightforward sum is faster and
// deterministic.
func Nrm2Sq(acc float64, x []float64) float64 {
	for _, v := range x {
		acc += v * v
	}
	return acc
}

// Asum returns the sum of absolute values of x (the L1 norm).
func Asum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// AmaxAbs returns the maximum absolute value in x, or 0 for an empty slice.
func AmaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Gather copies src[idx[k]] into dst[k]. dst must have length len(idx).
func Gather(dst, src []float64, idx []int) {
	if len(dst) != len(idx) {
		panic("mat: Gather length mismatch")
	}
	for k, j := range idx {
		dst[k] = src[j]
	}
}

// ScatterAdd performs dst[idx[k]] += v[k]. v must have length len(idx).
func ScatterAdd(dst, v []float64, idx []int) {
	if len(v) != len(idx) {
		panic("mat: ScatterAdd length mismatch")
	}
	for k, j := range idx {
		dst[j] += v[k]
	}
}

// ScatterAxpy performs dst[idx[k]] += alpha*v[k] — the sparse
// row/column update of every CSR/CSC kernel; alpha == 0 leaves dst
// untouched, like every kernel in the Axpy family. Duplicate indices
// accumulate in index order.
func ScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	if len(v) != len(idx) {
		panic("mat: ScatterAxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for k, j := range idx {
		dst[j] += alpha * v[k]
	}
}
