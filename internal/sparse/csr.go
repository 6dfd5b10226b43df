package sparse

import (
	"fmt"

	"saco/internal/mat"
	rt "saco/internal/runtime"
	"saco/internal/simd"
)

// CSR is a compressed sparse row matrix. Row i occupies the half-open
// index range [RowPtr[i], RowPtr[i+1]) of ColIdx and Val, with ColIdx
// strictly increasing within a row.
type CSR struct {
	M, N   int
	RowPtr []int
	ColIdx []int
	Val    []float64

	// workers is the kernel worker count (0 or 1 = sequential); set via
	// WithKernelWorkers so views, not mutation, select the backend.
	workers int
}

// NewCSR validates the three arrays and returns the matrix. It returns an
// error (rather than panicking) because CSR data often arrives from disk.
func NewCSR(m, n int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if len(rowPtr) != m+1 {
		return nil, fmt.Errorf("sparse: len(rowPtr)=%d, want %d", len(rowPtr), m+1)
	}
	if len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: len(colIdx)=%d != len(val)=%d", len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[m] != len(val) {
		return nil, fmt.Errorf("sparse: rowPtr bounds [%d,%d], want [0,%d]", rowPtr[0], rowPtr[m], len(val))
	}
	for i := 0; i < m; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= n {
				return nil, fmt.Errorf("sparse: column %d out of range in row %d", colIdx[k], i)
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return nil, fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
		}
	}
	return &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// Dims returns (rows, columns).
func (a *CSR) Dims() (int, int) { return a.M, a.N }

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

// Density returns NNZ/(M·N), the f of the paper's cost model (Table I).
func (a *CSR) Density() float64 {
	if a.M == 0 || a.N == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.M) * float64(a.N))
}

// RowNNZ returns the number of nonzeros in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// MulVec computes y = A·x. len(x) must be N and len(y) must be M. Rows
// are partitioned across the kernel workers: each y[i] is one row dot
// with a fixed summation order, so the multicore result is bitwise
// identical to the sequential one.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	rt.For(a.KernelWorkers(), a.M, 128, func(lo, hi int) {
		simd.SpMVRows(a.RowPtr, a.ColIdx, a.Val, x, y, lo, hi)
	})
}

// RowMulVec computes dst[k] = A_{rows[k]} · x, the batched row-vector dot
// products the SVM solvers need (Alg. 4 line 10: x' = Yᵀ·x).
func (a *CSR) RowMulVec(rows []int, x []float64, dst []float64) {
	if len(x) != a.N || len(dst) != len(rows) {
		panic("sparse: RowMulVec shape mismatch")
	}
	rt.For(a.KernelWorkers(), len(rows), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			r := rows[k]
			p0, p1 := a.RowPtr[r], a.RowPtr[r+1]
			dst[k] = simd.GatherDot(0, a.Val[p0:p1], a.ColIdx[p0:p1], x)
		}
	})
}

// RowTAxpy performs x += alpha·A_rowᵀ, the primal-vector update of the
// dual CD SVM (Alg. 3 line 15).
func (a *CSR) RowTAxpy(row int, alpha float64, x []float64) {
	if len(x) != a.N {
		panic("sparse: RowTAxpy shape mismatch")
	}
	p0, p1 := a.RowPtr[row], a.RowPtr[row+1]
	simd.ScatterAxpy(alpha, x, a.Val[p0:p1], a.ColIdx[p0:p1])
}

// RowNormSq returns ‖A_row‖², the diagonal Gram entry η of Alg. 3 line 7.
func (a *CSR) RowNormSq(row int) float64 {
	return simd.Nrm2Sq(0, a.Val[a.RowPtr[row]:a.RowPtr[row+1]])
}

// RowGram computes dst = A_R·AᵀR for the row set R (|R|×|R|), the s×s Gram
// matrix of Alg. 4 line 9 (without the γ regularization, which the solver
// adds on the diagonal); dst must be |R|×|R| and R may repeat a row. It is
// CSC.ColGram with rows for columns: the same sparse-accumulator kernel
// (gramAcc) over the upper triangle from +0 accumulators, so every entry
// has the bits of simd.MergeDot(0, row i, row j), then one mirror after
// the parallel join.
func (a *CSR) RowGram(rows []int, dst *mat.Dense) {
	if s := len(rows); dst.R != s || dst.C != s {
		panic("sparse: RowGram dst shape mismatch")
	}
	dst.Zero()
	gramAcc(a.KernelWorkers(), a.N, a.RowPtr, a.ColIdx, a.Val, rows, dst)
	dst.MirrorUpper()
}

// SliceRows returns the submatrix of rows [r0, r1) with the same column
// space. This is the 1D-row partitioner used for the Lasso layout.
func (a *CSR) SliceRows(r0, r1 int) *CSR {
	if r0 < 0 || r1 < r0 || r1 > a.M {
		panic(fmt.Sprintf("sparse: SliceRows [%d,%d) out of range", r0, r1))
	}
	lo, hi := a.RowPtr[r0], a.RowPtr[r1]
	rowPtr := make([]int, r1-r0+1)
	for i := range rowPtr {
		rowPtr[i] = a.RowPtr[r0+i] - lo
	}
	colIdx := make([]int, hi-lo)
	copy(colIdx, a.ColIdx[lo:hi])
	val := make([]float64, hi-lo)
	copy(val, a.Val[lo:hi])
	return &CSR{M: r1 - r0, N: a.N, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// SliceCols returns the submatrix of columns [c0, c1), reindexed to start
// at zero, keeping all rows. This is the 1D-column partitioner used for
// the SVM layout.
func (a *CSR) SliceCols(c0, c1 int) *CSR {
	if c0 < 0 || c1 < c0 || c1 > a.N {
		panic(fmt.Sprintf("sparse: SliceCols [%d,%d) out of range", c0, c1))
	}
	rowPtr := make([]int, a.M+1)
	var colIdx []int
	var val []float64
	for i := 0; i < a.M; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := a.ColIdx[k]; c >= c0 && c < c1 {
				colIdx = append(colIdx, c-c0)
				val = append(val, a.Val[k])
			}
		}
		rowPtr[i+1] = len(val)
	}
	return &CSR{M: a.M, N: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// ToCSC converts to compressed sparse column format.
func (a *CSR) ToCSC() *CSC {
	colPtr := make([]int, a.N+1)
	for _, c := range a.ColIdx {
		colPtr[c+1]++
	}
	for j := 0; j < a.N; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, a.NNZ())
	val := make([]float64, a.NNZ())
	next := make([]int, a.N)
	copy(next, colPtr[:a.N])
	for i := 0; i < a.M; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			rowIdx[p] = i
			val[p] = a.Val[k]
			next[c]++
		}
	}
	return &CSC{M: a.M, N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// ToDense expands to a dense matrix (for tests and tiny problems).
func (a *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(a.M, a.N)
	for i := 0; i < a.M; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d.Set(i, a.ColIdx[k], a.Val[k])
		}
	}
	return d
}

// FromDense compresses a dense matrix, dropping exact zeros.
func FromDense(d *mat.Dense) *CSR {
	rowPtr := make([]int, d.R+1)
	var colIdx []int
	var val []float64
	for i := 0; i < d.R; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				colIdx = append(colIdx, j)
				val = append(val, v)
			}
		}
		rowPtr[i+1] = len(val)
	}
	return &CSR{M: d.R, N: d.C, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}
