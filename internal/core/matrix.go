package core

import "saco/internal/mat"

// ColMatrix is the access pattern the Lasso-family solvers need: sampling
// columns, forming their Gram matrices and products against residual
// vectors. sparse.CSC implements it, for dense data too. A Gram is
// symmetric and stored as its upper triangle: ColGram must write every
// entry i ≤ j, and the solvers read no entry below the diagonal (the
// kernels of package sparse leave it +0).
type ColMatrix interface {
	// Dims returns (rows m, columns n).
	Dims() (int, int)
	// ColNormSq returns ‖A_:j‖².
	ColNormSq(j int) float64
	// ColTMulVec computes dst[k] = A_:cols[k] · v (dst = A_Sᵀ·v).
	ColTMulVec(cols []int, v []float64, dst []float64)
	// ColMulAdd computes v += A_S·coef.
	ColMulAdd(cols []int, coef []float64, v []float64)
	// ColGram computes the upper triangle of dst = A_SᵀA_S (|S|×|S|).
	ColGram(cols []int, dst *mat.Dense)
	// MulVec computes y = A·x.
	MulVec(x, y []float64)
}

// RowMatrix is the access pattern the dual coordinate-descent SVM solvers
// need: sampling rows, their Gram matrices, and rank-one primal updates.
// sparse.CSR implements it, for dense data too. Its Gram follows
// ColMatrix's convention: upper triangle written, lower never read.
type RowMatrix interface {
	// Dims returns (rows m, columns n).
	Dims() (int, int)
	// RowNormSq returns ‖A_i‖².
	RowNormSq(i int) float64
	// RowMulVec computes dst[k] = A_rows[k] · x.
	RowMulVec(rows []int, x []float64, dst []float64)
	// RowTAxpy performs x += alpha·A_rowᵀ.
	RowTAxpy(row int, alpha float64, x []float64)
	// RowGram computes the upper triangle of dst = A_R·A_Rᵀ (|R|×|R|).
	RowGram(rows []int, dst *mat.Dense)
	// MulVec computes y = A·x.
	MulVec(x, y []float64)
}
