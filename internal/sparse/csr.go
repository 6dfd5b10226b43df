package sparse

import (
	"fmt"

	"saco/internal/mat"
	rt "saco/internal/runtime"
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
	// memo holds the row blocks RowsToCSC has converted (rowmemo.go);
	// nil until the first conversion, shared by later views.
	memo *rowMemo
}

// NewCSR validates the three arrays and returns the matrix. It returns an
// error (rather than panicking) because CSR data often arrives from disk.
func NewCSR(m, n int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	a := &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := a.Check(); err != nil {
		return nil, err
	}
	return a, nil
}

// Check runs NewCSR's validation on a matrix built as a value: the
// array lengths against M, RowPtr's bounds and monotonicity, and every
// row's columns in [0, N) and strictly increasing. RowPtr is checked
// whole — monotone from 0 to nnz — before any row is read, so a pointer
// past the entries is an error, not an index out of range.
func (a *CSR) Check() error {
	m, n, rowPtr, colIdx, val := a.M, a.N, a.RowPtr, a.ColIdx, a.Val
	if len(rowPtr) != m+1 {
		return fmt.Errorf("sparse: len(rowPtr)=%d, want %d", len(rowPtr), m+1)
	}
	if len(colIdx) != len(val) {
		return fmt.Errorf("sparse: len(colIdx)=%d != len(val)=%d", len(colIdx), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[m] != len(val) {
		return fmt.Errorf("sparse: rowPtr bounds [%d,%d], want [0,%d]", rowPtr[0], rowPtr[m], len(val))
	}
	for i := 0; i < m; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
	}
	for i := 0; i < m; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= n {
				return fmt.Errorf("sparse: column %d out of range in row %d", colIdx[k], i)
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
		}
	}
	return nil
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
// are split across as many kernel workers as the work rule grants the
// stored entries: each y[i] is one row dot with a fixed summation
// order, so the multicore result is bitwise identical to the sequential
// one. The closure exists only on the forking path, as in
// CSC.ColTMulVec: it escapes, so building it costs an allocation.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch A=%dx%d len(x)=%d len(y)=%d", a.M, a.N, len(x), len(y)))
	}
	if w := rt.Width(a.KernelWorkers(), a.NNZ()); w > 1 {
		rt.For(w, a.M, func(lo, hi int) { spmvRows(a.RowPtr, a.ColIdx, a.Val, x, y, lo, hi) })
	} else {
		spmvRows(a.RowPtr, a.ColIdx, a.Val, x, y, 0, a.M)
	}
}

// RowMulVec computes dst[k] = A_{rows[k]} · x, the batched row-vector dot
// products the SVM solvers need (Alg. 4 line 10: x' = Yᵀ·x).
func (a *CSR) RowMulVec(rows []int, x []float64, dst []float64) {
	if len(x) != a.N || len(dst) != len(rows) {
		panic("sparse: RowMulVec shape mismatch")
	}
	if w := forkWidth(a.KernelWorkers(), a.RowPtr, rows, 0); w > 1 {
		rt.For(w, len(rows), func(lo, hi int) { a.rowMulVec(rows, x, dst, lo, hi) })
	} else {
		a.rowMulVec(rows, x, dst, 0, len(rows))
	}
}

func (a *CSR) rowMulVec(rows []int, x, dst []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		r := rows[k]
		p0, p1 := a.RowPtr[r], a.RowPtr[r+1]
		if p1-p0 == a.N {
			dst[k] = fullDot(0, a.Val[p0:p1], x)
			continue
		}
		dst[k] = gatherDot(0, a.Val[p0:p1], a.ColIdx[p0:p1], x)
	}
}

// RowTAxpy performs x += alpha·A_rowᵀ, the primal-vector update of the
// dual CD SVM (Alg. 3 line 15).
func (a *CSR) RowTAxpy(row int, alpha float64, x []float64) {
	if len(x) != a.N {
		panic("sparse: RowTAxpy shape mismatch")
	}
	p0, p1 := a.RowPtr[row], a.RowPtr[row+1]
	if p1-p0 == a.N { // a full row: the scatter is a contiguous Axpy
		mat.Axpy(alpha, a.Val[p0:p1], x)
		return
	}
	mat.ScatterAxpy(alpha, x, a.Val[p0:p1], a.ColIdx[p0:p1])
}

// RowNormSq returns ‖A_row‖², the diagonal Gram entry η of Alg. 3 line 7.
func (a *CSR) RowNormSq(row int) float64 {
	return mat.Nrm2Sq(0, a.Val[a.RowPtr[row]:a.RowPtr[row+1]])
}

// RowGram computes dst = A_R·AᵀR for the row set R (|R|×|R|), the s×s Gram
// matrix of Alg. 4 line 9 (without the γ regularization, which the solver
// adds on the diagonal); dst must be |R|×|R| and R may repeat a row. It is
// CSC.ColGram with rows for columns: the same kernel (gramAcc: the rows
// linked into one list per column, each row read once) over the upper
// triangle from +0 accumulators, so every upper entry has the bits of
// simd.MergeDot(0, row i, row j), and the strict lower triangle is +0.
func (a *CSR) RowGram(rows []int, dst *mat.Dense) {
	if s := len(rows); dst.R != s || dst.C != s {
		panic("sparse: RowGram dst shape mismatch")
	}
	dst.Zero()
	gramAcc(a.KernelWorkers(), a.N, a.RowPtr, a.ColIdx, a.Val, rows, dst)
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

// ToCSC converts to compressed sparse column format: RowsToCSC(0, M),
// memoized like any other row range.
func (a *CSR) ToCSC() *CSC { return a.RowsToCSC(0, a.M) }

// RowsToCSC returns rows [r0, r1) in compressed sparse column form, with
// the full column space and rows renumbered from zero: the same bytes as
// SliceRows(r0, r1).ToCSC(), counted and scattered from this matrix in
// place of a copy of the rows. The matrix keeps the block: asking for
// the same range again returns the same *CSC, which callers must treat
// as read-only, and a range that overlaps held ones evicts them
// (rowmemo.go). An empty range is built fresh every time.
func (a *CSR) RowsToCSC(r0, r1 int) *CSC {
	if r0 < 0 || r1 < r0 || r1 > a.M {
		panic(fmt.Sprintf("sparse: RowsToCSC [%d,%d) out of range", r0, r1))
	}
	if r0 == r1 {
		return a.scatterRows(r0, r1)
	}
	b := a.loadMemo().block(a, r0, r1)
	b.once.Do(func() { b.csc = a.scatterRows(r0, r1) })
	return b.csc
}

// ScatterToCSC converts to compressed sparse column format without
// consulting or filling the matrix's memo: the conversion for a CSR
// that is dropped right after, such as a block assembled from shards.
// The result has the bytes of ToCSC and belongs to the caller.
func (a *CSR) ScatterToCSC() *CSC { return a.scatterRows(0, a.M) }

// scatterRows counts rows [r0, r1) into column pointers and scatters
// them: the one conversion every path above ends in.
func (a *CSR) scatterRows(r0, r1 int) *CSC {
	k0, k1 := a.RowPtr[r0], a.RowPtr[r1]
	colPtr := make([]int, a.N+1)
	for _, c := range a.ColIdx[k0:k1] {
		colPtr[c+1]++
	}
	for j := 0; j < a.N; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, k1-k0)
	val := make([]float64, k1-k0)
	next := make([]int, a.N)
	copy(next, colPtr[:a.N])
	for i := r0; i < r1; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			rowIdx[p] = i - r0
			val[p] = a.Val[k]
			next[c]++
		}
	}
	return &CSC{M: r1 - r0, N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
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
