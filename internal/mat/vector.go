package mat

import (
	"fmt"
	"math"

	"saco/internal/simd"
)

// The O(n) hot primitives below (Dot, Axpy, Scal, Nrm2Sq, ScatterAxpy,
// SparseDot) call internal/simd, whose scalar loops are this package's
// original ones. Shape checking stays here — the kernels only guard
// against out-of-bounds, not against caller bugs like mismatched
// lengths.

// Dot returns the inner product of x and y.
// It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(x), len(y)))
	}
	return simd.Dot(x, y)
}

// Axpy computes y += alpha*x in place; alpha == 0 leaves y untouched
// (see the internal/simd alpha == 0 contract).
// It panics if the lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	simd.Axpy(alpha, x, y)
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	simd.Scal(alpha, x)
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow
// and underflow by scaling (as in the reference BLAS dnrm2).
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Nrm2Sq returns the squared Euclidean norm of x. Unlike Nrm2 it does not
// guard against overflow; the solvers use it on well-scaled residuals where
// the straightforward sum is faster and deterministic.
func Nrm2Sq(x []float64) float64 {
	return simd.Nrm2Sq(0, x)
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

// ScatterAxpy performs dst[idx[k]] += alpha*v[k]; alpha == 0 leaves dst
// untouched, like every kernel in the Axpy family.
func ScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	if len(v) != len(idx) {
		panic("mat: ScatterAxpy length mismatch")
	}
	simd.ScatterAxpy(alpha, dst, v, idx)
}

// SparseDot returns Σ_k val[k]·x[idx[k]] — the inner product of a dense
// vector with a sparse vector given as (index, value) pairs. It is the
// per-row primitive of the dense-batch × sparse-model scoring kernel:
// only the model's nonzero coordinates are touched, so scoring a dense
// row against a k-sparse Lasso model costs O(k) instead of O(n).
func SparseDot(x []float64, idx []int, val []float64) float64 {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("mat: SparseDot index/value length mismatch %d != %d", len(idx), len(val)))
	}
	return simd.GatherDot(0, val, idx, x)
}
