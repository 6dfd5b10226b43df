package sparse

import "fmt"

// The gather loops of the CSR/CSC kernels. Like mat's BLAS-1 loops
// they are the bitwise reference: each accumulates left to right, and
// the deterministic backend matrix is defined by that order.

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

// spmvRows computes y[i] = Σ_k val[k]·x[colIdx[k]] over each CSR row i
// in [lo, hi) — the fused gather-multiply-accumulate row loop of
// CSR.MulVec. A full row (it stores all len(x) columns, so its indices
// are 0, 1, …) is the contiguous fullDot, with the gather's bits.
func spmvRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p0, p1 := rowPtr[i], rowPtr[i+1]
		if p1-p0 == len(x) {
			y[i] = fullDot(0, val[p0:p1], x)
			continue
		}
		var s float64
		for k := p0; k < p1; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}

// fullDot returns acc + Σ x[r]·y[r], left to right: gatherDot over two
// full operands, whose indices are 0, 1, …. len(y) must be at least
// len(x). It is not inlined: inside a caller's larger loop nest its
// counter would spill, and the store-to-load round trip would join
// every step's dependency chain.
//
//go:noinline
func fullDot(acc float64, x, y []float64) float64 {
	y = y[:len(x)]
	for r, v := range x {
		acc += v * y[r]
	}
	return acc
}
