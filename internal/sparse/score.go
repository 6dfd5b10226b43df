package sparse

import (
	"fmt"

	"saco/internal/mat"
	rt "saco/internal/runtime"
	"saco/internal/simd"
)

// Batched model-scoring kernels: y = A·x for a *sparse* coefficient
// vector x given as strictly increasing (idx, val) pairs — the shape of
// a trained Lasso/SVM model, whose support is a small fraction of the
// feature space. The serving layer micro-batches concurrent prediction
// requests into one matrix A (CSR for sparse request rows, DenseRows for
// dense datasets) and makes a single kernel call, amortizing dispatch
// across the batch exactly like the solvers' Gram kernels.
//
// Every output row is an independent dot product with a fixed summation
// order, partitioned across the persistent worker pool, so a batched
// call is bitwise identical to scoring each row alone — the guarantee
// the serving tests pin.

// checkSparseVec validates the (idx, val) representation of a sparse
// model vector against the feature dimension n.
func checkSparseVec(n int, idx []int, val []float64) {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("sparse: sparse vector index/value length mismatch %d != %d", len(idx), len(val)))
	}
	prev := -1
	for _, j := range idx {
		if j <= prev || j >= n {
			panic(fmt.Sprintf("sparse: sparse vector index %d out of order or out of range (n=%d)", j, n))
		}
		prev = j
	}
}

// MulSparseVec computes y[i] = A_i · x where x is the sparse vector
// Σ_k val[k]·e_idx[k] (indices strictly increasing). Each row is a
// two-pointer merge of the row's nonzeros with the model's support:
// O(nnz(row) + nnz(x)) per row, never touching the n-wide dense space.
// Rows partition across the kernel workers with unchanged per-row
// summation order, so results are bitwise identical at every width.
func (a *CSR) MulSparseVec(idx []int, val []float64, y []float64) {
	if len(y) != a.M {
		panic(fmt.Sprintf("sparse: MulSparseVec shape mismatch A=%dx%d len(y)=%d", a.M, a.N, len(y)))
	}
	checkSparseVec(a.N, idx, val)
	rt.For(a.KernelWorkers(), a.M, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, end := a.RowPtr[i], a.RowPtr[i+1]
			y[i] = simd.MergeDot(0, a.ColIdx[p:end], a.Val[p:end], idx, val)
		}
	})
}

// MulSparseVec computes y[i] = A_i · x for a dense batch against the
// sparse model x: each row reads only the model's support coordinates
// (mat.SparseDot), so the cost is rows × nnz(x). Rows partition across
// the kernel workers; per-row order is fixed, results bitwise identical
// at every width.
func (d DenseRows) MulSparseVec(idx []int, val []float64, y []float64) {
	if len(y) != d.A.R {
		panic(fmt.Sprintf("sparse: DenseRows.MulSparseVec shape mismatch A=%dx%d len(y)=%d", d.A.R, d.A.C, len(y)))
	}
	checkSparseVec(d.A.C, idx, val)
	rt.For(d.KernelWorkers(), d.A.R, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = mat.SparseDot(d.A.Row(i), idx, val)
		}
	})
}
