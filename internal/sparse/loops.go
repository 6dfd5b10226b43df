package sparse

import "fmt"

// The gather loops of the CSR/CSC/dense kernels. Like mat's BLAS-1
// loops they are the bitwise reference — each accumulates left to
// right, and the deterministic backend matrix is defined by that order
// — and gatherAxpy keeps mat's alpha == 0 contract.

// gatherDot returns acc + Σ val[k]·x[idx[k]] — the sparse-row dot
// product of every CSR/CSC kernel. len(val) must be at least len(idx).
func gatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	if len(val) < len(idx) {
		panic(fmt.Sprintf("sparse: gatherDot len(val)=%d < len(idx)=%d", len(val), len(idx)))
	}
	for k, j := range idx {
		acc += val[k] * x[j]
	}
	return acc
}

// gatherAxpy computes dst[k] += alpha·src[idx[k]] — the dense Gram
// update inner loop; alpha == 0 is a no-op. len(dst) must be at least
// len(idx).
func gatherAxpy(alpha float64, dst, src []float64, idx []int) {
	if len(dst) < len(idx) {
		panic(fmt.Sprintf("sparse: gatherAxpy len(dst)=%d < len(idx)=%d", len(dst), len(idx)))
	}
	if alpha == 0 {
		return
	}
	for k, j := range idx {
		dst[k] += alpha * src[j]
	}
}

// spmvRows computes y[i] = Σ_k val[k]·x[colIdx[k]] over each CSR row i
// in [lo, hi) — the fused gather-multiply-accumulate row loop of
// CSR.MulVec.
func spmvRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}
