package sparse

import (
	"fmt"

	"saco/internal/mat"
	rt "saco/internal/runtime"
)

// DenseCols adapts a dense matrix to the column-sampling access pattern of
// the Lasso solvers, so dense datasets (epsilon, gisette, leu in the paper)
// flow through the same code path as sparse ones. Workers selects the
// kernel worker count (0 or 1 = sequential); the parallel paths partition
// independent output elements only, so results are bitwise identical on
// every backend.
type DenseCols struct {
	A       *mat.Dense
	Workers int
}

// Dims returns (rows, columns).
func (d DenseCols) Dims() (int, int) { return d.A.R, d.A.C }

// Density returns the fraction of stored entries that are nonzero; the
// async backend's collision-rate damping reads it through the optional
// Density capability shared with CSR/CSC.
func (d DenseCols) Density() float64 { return denseDensity(d.A) }

// ColNormSq returns ‖A_:j‖².
func (d DenseCols) ColNormSq(j int) float64 {
	var s float64
	for i := 0; i < d.A.R; i++ {
		v := d.A.At(i, j)
		s += v * v
	}
	return s
}

// ColTMulVec computes dst = A_Sᵀ·v. Workers own disjoint slices of dst
// and stream the rows of A in the same order as the sequential kernel,
// so each dst[k] accumulates identically.
func (d DenseCols) ColTMulVec(cols []int, v []float64, dst []float64) {
	if len(v) != d.A.R || len(dst) != len(cols) {
		panic(fmt.Sprintf("sparse: DenseCols.ColTMulVec shape mismatch A=%dx%d len(v)=%d", d.A.R, d.A.C, len(v)))
	}
	rt.For(d.KernelWorkers(), len(cols), 1, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			dst[k] = 0
		}
		for i := 0; i < d.A.R; i++ {
			gatherAxpy(v[i], dst[klo:khi], d.A.Row(i), cols[klo:khi])
		}
	})
}

// ColMulAdd computes v += A_S·coef, partitioning the disjoint rows of v.
func (d DenseCols) ColMulAdd(cols []int, coef []float64, v []float64) {
	if len(v) != d.A.R || len(coef) != len(cols) {
		panic("sparse: DenseCols.ColMulAdd shape mismatch")
	}
	rt.For(d.KernelWorkers(), d.A.R, 128, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] += gatherDot(0, coef, cols, d.A.Row(i))
		}
	})
}

// ColGram computes the upper triangle of dst = A_SᵀA_S, with a +0
// strict lower triangle. Workers own disjoint row bands of the upper
// triangle (balanced with TriangleRanges) and stream the data rows in
// sequential order, so every entry accumulates identically to the
// one-worker run.
func (d DenseCols) ColGram(cols []int, dst *mat.Dense) {
	s := len(cols)
	if dst.R != s || dst.C != s {
		panic("sparse: DenseCols.ColGram dst shape mismatch")
	}
	dst.Zero()
	gramRows := func(alo, ahi int) {
		for i := 0; i < d.A.R; i++ {
			row := d.A.Row(i)
			for a := alo; a < ahi; a++ {
				va := row[cols[a]]
				if va == 0 {
					continue
				}
				gatherAxpy(va, dst.Row(a)[a:], row, cols[a:])
			}
		}
	}
	if w := d.KernelWorkers(); w > 1 && s >= 4 {
		rt.Ranges(rt.TriangleRanges(s, w), gramRows)
	} else {
		gramRows(0, s)
	}
}

// MulVec computes y = A·x across the kernel workers (row partition).
func (d DenseCols) MulVec(x, y []float64) {
	if len(x) != d.A.C || len(y) != d.A.R {
		panic("sparse: DenseCols.MulVec shape mismatch")
	}
	rt.For(d.KernelWorkers(), d.A.R, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = mat.Dot(d.A.Row(i), x)
		}
	})
}

// DenseRows adapts a dense matrix to the row-sampling access pattern of
// the dual coordinate-descent SVM solvers. Workers selects the kernel
// worker count (0 or 1 = sequential).
type DenseRows struct {
	A       *mat.Dense
	Workers int
}

// Dims returns (rows, columns).
func (d DenseRows) Dims() (int, int) { return d.A.R, d.A.C }

// Density returns the fraction of stored entries that are nonzero (see
// DenseCols.Density).
func (d DenseRows) Density() float64 { return denseDensity(d.A) }

// denseDensity counts nonzeros; one O(R·C) scan, trivial next to any
// solve that would consult it.
func denseDensity(a *mat.Dense) float64 {
	if a.R == 0 || a.C == 0 {
		return 0
	}
	nnz := 0
	for _, v := range a.Data {
		if v != 0 {
			nnz++
		}
	}
	return float64(nnz) / float64(len(a.Data))
}

// RowNormSq returns ‖A_row‖².
func (d DenseRows) RowNormSq(row int) float64 { return mat.Nrm2Sq(0, d.A.Row(row)) }

// RowMulVec computes dst[k] = A_{rows[k]}·x; the batched row dots are
// independent, so they partition across the kernel workers.
func (d DenseRows) RowMulVec(rows []int, x []float64, dst []float64) {
	if len(x) != d.A.C || len(dst) != len(rows) {
		panic("sparse: DenseRows.RowMulVec shape mismatch")
	}
	rt.For(d.KernelWorkers(), len(rows), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			dst[k] = mat.Dot(d.A.Row(rows[k]), x)
		}
	})
}

// RowTAxpy performs x += alpha·A_rowᵀ.
func (d DenseRows) RowTAxpy(row int, alpha float64, x []float64) {
	mat.Axpy(alpha, d.A.Row(row), x)
}

// RowGram computes the upper triangle of dst = A_R·AᵀR, with a +0
// strict lower triangle, partitioning the triangle rows.
func (d DenseRows) RowGram(rows []int, dst *mat.Dense) {
	s := len(rows)
	if dst.R != s || dst.C != s {
		panic("sparse: DenseRows.RowGram dst shape mismatch")
	}
	gramRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ri, out := d.A.Row(rows[i]), dst.Row(i)
			clear(out[:i])
			for j := i; j < s; j++ {
				out[j] = mat.Dot(ri, d.A.Row(rows[j]))
			}
		}
	}
	if w := d.KernelWorkers(); w > 1 && s >= 4 {
		rt.Ranges(rt.TriangleRanges(s, w), gramRows)
	} else {
		gramRows(0, s)
	}
}

// MulVec computes y = A·x across the kernel workers (row partition).
func (d DenseRows) MulVec(x, y []float64) {
	if len(x) != d.A.C || len(y) != d.A.R {
		panic("sparse: DenseRows.MulVec shape mismatch")
	}
	rt.For(d.KernelWorkers(), d.A.R, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = mat.Dot(d.A.Row(i), x)
		}
	})
}
