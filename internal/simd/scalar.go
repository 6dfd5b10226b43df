package simd

import "fmt"

// The scalar loops: the repository's original pure-Go kernels, moved
// here verbatim from internal/mat and internal/sparse. These bodies are
// the bitwise reference — the deterministic backend matrix is defined
// by their summation orders. Do not "improve" them: a lane-split or
// fused reduction changes every trajectory (and detfloat flags it).

// Axpy computes y[i] += alpha·x[i] over len(x) elements; alpha == 0 is
// a no-op (see the package contract). len(y) must be at least len(x).
func Axpy(alpha float64, x, y []float64) {
	if len(y) < len(x) {
		panic(fmt.Sprintf("simd: Axpy len(y)=%d < len(x)=%d", len(y), len(x)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x[i] *= alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y, accumulated left to right.
// len(y) must be at least len(x).
func Dot(x, y []float64) float64 {
	if len(y) < len(x) {
		panic(fmt.Sprintf("simd: Dot len(y)=%d < len(x)=%d", len(y), len(x)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2Sq returns acc + Σ x[i]², threading the running accumulator the
// out-of-core column kernels carry across row blocks.
func Nrm2Sq(acc float64, x []float64) float64 {
	for _, v := range x {
		acc += v * v
	}
	return acc
}

// GatherDot returns acc + Σ val[k]·x[idx[k]] — the sparse-row dot
// product of every CSR/CSC kernel. len(val) must be at least len(idx).
func GatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	if len(val) < len(idx) {
		panic(fmt.Sprintf("simd: GatherDot len(val)=%d < len(idx)=%d", len(val), len(idx)))
	}
	for k, j := range idx {
		acc += val[k] * x[j]
	}
	return acc
}

// GatherAxpy computes dst[k] += alpha·src[idx[k]] — the dense Gram
// update inner loop; alpha == 0 is a no-op. len(dst) must be at least
// len(idx).
func GatherAxpy(alpha float64, dst, src []float64, idx []int) {
	if len(dst) < len(idx) {
		panic(fmt.Sprintf("simd: GatherAxpy len(dst)=%d < len(idx)=%d", len(dst), len(idx)))
	}
	if alpha == 0 {
		return
	}
	for k, j := range idx {
		dst[k] += alpha * src[j]
	}
}

// ScatterAxpy computes dst[idx[k]] += alpha·v[k] — the sparse
// row/column update of every CSR/CSC kernel; alpha == 0 is a no-op.
// len(v) must be at least len(idx). Duplicate indices accumulate in
// index order.
func ScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	if len(v) < len(idx) {
		panic(fmt.Sprintf("simd: ScatterAxpy len(v)=%d < len(idx)=%d", len(v), len(idx)))
	}
	if alpha == 0 {
		return
	}
	for k, j := range idx {
		dst[j] += alpha * v[k]
	}
}

// MergeDot returns acc + the dot product of two sparse vectors given as
// strictly increasing (index, value) pairs, via a sorted two-pointer
// merge. Package sparse defines its Gram entries by it (and assembles
// them without it: sparse/gram.go) and scores sparse requests with it.
func MergeDot(acc float64, ia []int, va []float64, ib []int, vb []float64) float64 {
	if len(va) < len(ia) || len(vb) < len(ib) {
		panic("simd: MergeDot index/value length mismatch")
	}
	p, q := 0, 0
	for p < len(ia) && q < len(ib) {
		switch cp, cq := ia[p], ib[q]; {
		case cp == cq:
			acc += va[p] * vb[q]
			p++
			q++
		case cp < cq:
			p++
		default:
			q++
		}
	}
	return acc
}

// SpMVRows computes y[i] = Σ_k val[k]·x[colIdx[k]] over each CSR row i
// in [lo, hi) — the fused gather-multiply-accumulate row loop of
// CSR.MulVec.
func SpMVRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}
