package sparse

import (
	"fmt"

	"saco/internal/mat"
	rt "saco/internal/runtime"
	"saco/internal/simd"
)

// CSC is a compressed sparse column matrix. Column j occupies the
// half-open range [ColPtr[j], ColPtr[j+1]) of RowIdx and Val, with RowIdx
// strictly increasing within a column. It is the working format of the
// Lasso solvers, which sample columns every iteration.
type CSC struct {
	M, N   int
	ColPtr []int
	RowIdx []int
	Val    []float64

	// workers is the kernel worker count (0 or 1 = sequential); set via
	// WithKernelWorkers so views, not mutation, select the backend.
	workers int
}

// NewCSC validates the three arrays and returns the matrix. It returns an
// error (rather than panicking) because CSC data now also arrives from
// disk (the column-sharded spill format of package stream), mirroring
// NewCSR.
func NewCSC(m, n int, colPtr, rowIdx []int, val []float64) (*CSC, error) {
	if len(colPtr) != n+1 {
		return nil, fmt.Errorf("sparse: len(colPtr)=%d, want %d", len(colPtr), n+1)
	}
	if len(rowIdx) != len(val) {
		return nil, fmt.Errorf("sparse: len(rowIdx)=%d != len(val)=%d", len(rowIdx), len(val))
	}
	if colPtr[0] != 0 || colPtr[n] != len(val) {
		return nil, fmt.Errorf("sparse: colPtr bounds [%d,%d], want [0,%d]", colPtr[0], colPtr[n], len(val))
	}
	for j := 0; j < n; j++ {
		if colPtr[j] > colPtr[j+1] {
			return nil, fmt.Errorf("sparse: colPtr not monotone at column %d", j)
		}
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			if rowIdx[p] < 0 || rowIdx[p] >= m {
				return nil, fmt.Errorf("sparse: row %d out of range in column %d", rowIdx[p], j)
			}
			if p > colPtr[j] && rowIdx[p] <= rowIdx[p-1] {
				return nil, fmt.Errorf("sparse: rows not strictly increasing in column %d", j)
			}
		}
	}
	return &CSC{M: m, N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, nil
}

// Dims returns (rows, columns).
func (a *CSC) Dims() (int, int) { return a.M, a.N }

// NNZ returns the number of stored nonzeros.
func (a *CSC) NNZ() int { return len(a.Val) }

// ColNNZ returns the number of nonzeros in column j.
func (a *CSC) ColNNZ(j int) int { return a.ColPtr[j+1] - a.ColPtr[j] }

// Density returns NNZ/(M·N), the f of the paper's cost model (Table I).
func (a *CSC) Density() float64 {
	if a.M == 0 || a.N == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.M) * float64(a.N))
}

// ColNormSq returns ‖A_:j‖², the 1×1 Gram matrix of coordinate descent.
func (a *CSC) ColNormSq(j int) float64 {
	return simd.Nrm2Sq(0, a.Val[a.ColPtr[j]:a.ColPtr[j+1]])
}

// ColTMulVec computes dst[k] = A_:cols[k] · v, i.e. dst = A_Sᵀ·v. This is
// the dot-product step of Fig. 1 (lines 8–9 of Alg. 1); in the distributed
// layout each rank calls it on its local row block and the results are
// summed by an Allreduce.
func (a *CSC) ColTMulVec(cols []int, v []float64, dst []float64) {
	if len(v) != a.M || len(dst) != len(cols) {
		panic(fmt.Sprintf("sparse: ColTMulVec shape mismatch A=%dx%d len(v)=%d", a.M, a.N, len(v)))
	}
	// Each dst[k] is an independent column dot with a fixed summation
	// order, so partitioning the output keeps results bitwise identical.
	// The closure exists only on the multicore path: it escapes into the
	// pool, and the s = 1 solvers call this once per iteration.
	if w := a.KernelWorkers(); w > 1 {
		rt.For(w, len(cols), 1, func(lo, hi int) { a.colTMulVec(cols, v, dst, lo, hi) })
	} else {
		a.colTMulVec(cols, v, dst, 0, len(cols))
	}
}

func (a *CSC) colTMulVec(cols []int, v, dst []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		j := cols[k]
		p0, p1 := a.ColPtr[j], a.ColPtr[j+1]
		dst[k] = simd.GatherDot(0, a.Val[p0:p1], a.RowIdx[p0:p1], v)
	}
}

// ColMulAdd computes v += A_S·coef, the residual update z̃ += A_h·Δz
// (Alg. 1 line 15). coef[k] multiplies column cols[k]. It stays
// sequential on every backend: the column scatter writes overlapping
// rows of v, and the sampled blocks are small enough (≤ sµ columns) that
// a race-free row-partitioned rewrite would cost more than it saves.
func (a *CSC) ColMulAdd(cols []int, coef []float64, v []float64) {
	if len(v) != a.M || len(coef) != len(cols) {
		panic("sparse: ColMulAdd shape mismatch")
	}
	for k, j := range cols {
		p0, p1 := a.ColPtr[j], a.ColPtr[j+1]
		simd.ScatterAxpy(coef[k], v, a.Val[p0:p1], a.RowIdx[p0:p1])
	}
}

// ColGram computes dst = A_SᵀA_S for the column set S (|S|×|S|): the µ×µ
// Gram matrix of Alg. 1 line 8, or the sµ×sµ batched Gram matrix of
// Alg. 2 line 11 when S concatenates s sampled blocks (the same column
// may then appear twice). Only the upper triangle is computed and then
// mirrored, matching the paper's footnote 3 (symmetry halves the flops
// and message size). It is ColGramAcc from +0 accumulators, so every
// entry has the bits of simd.MergeDot(0, column i, column j).
func (a *CSC) ColGram(cols []int, dst *mat.Dense) {
	if s := len(cols); dst.R != s || dst.C != s {
		panic("sparse: ColGram dst shape mismatch")
	}
	dst.Zero()
	gramAcc(a.KernelWorkers(), a.M, a.ColPtr, a.RowIdx, a.Val, cols, dst)
	// The mirror writes happen after the parallel join: writing dst(j,i)
	// from the worker that owns row i lands on cache lines owned by other
	// workers' rows and bounces the Gram block between cores.
	dst.MirrorUpper()
}

// ColTMulVecAcc accumulates dst[k] += A_:cols[k] · v term by term,
// continuing the running sum already in dst. It is the row-block
// continuation kernel of the out-of-core column views (package stream):
// when A is split into consecutive row blocks A = [B₀; B₁; …] and the
// blocks are visited in order with v sliced to the matching rows, the
// additions onto dst[k] happen in exactly the row order of the
// in-memory ColTMulVec, so the streamed result is bitwise identical.
func (a *CSC) ColTMulVecAcc(cols []int, v []float64, dst []float64) {
	if len(v) != a.M || len(dst) != len(cols) {
		panic(fmt.Sprintf("sparse: ColTMulVecAcc shape mismatch A=%dx%d len(v)=%d", a.M, a.N, len(v)))
	}
	for k, j := range cols {
		p0, p1 := a.ColPtr[j], a.ColPtr[j+1]
		dst[k] = simd.GatherDot(dst[k], a.Val[p0:p1], a.RowIdx[p0:p1], v)
	}
}

// ColGramAcc accumulates the upper triangle of A_SᵀA_S into dst,
// continuing the running sums already there; callers mirror the lower
// triangle (mat.Dense.MirrorUpper) after the final block. Like
// ColTMulVecAcc it threads each entry's accumulator through consecutive
// row blocks in row order, so Σ_blocks ColGramAcc followed by one mirror
// is bitwise identical to the in-memory ColGram. The entries come from
// the sparse-accumulator kernel gramAcc, which adds to dst(i,j) the
// products of the rows columns i and j share, in ascending row order.
func (a *CSC) ColGramAcc(cols []int, dst *mat.Dense) {
	if s := len(cols); dst.R != s || dst.C != s {
		panic("sparse: ColGramAcc dst shape mismatch")
	}
	gramAcc(a.KernelWorkers(), a.M, a.ColPtr, a.RowIdx, a.Val, cols, dst)
}

// ColNormSqAcc returns acc + ‖A_:j‖² accumulated term by term, the
// row-block continuation of ColNormSq.
func (a *CSC) ColNormSqAcc(j int, acc float64) float64 {
	return simd.Nrm2Sq(acc, a.Val[a.ColPtr[j]:a.ColPtr[j+1]])
}

// MulVec computes y = A·x by column accumulation.
func (a *CSC) MulVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.M {
		panic("sparse: CSC.MulVec shape mismatch")
	}
	mat.Fill(y, 0)
	for j := 0; j < a.N; j++ {
		p0, p1 := a.ColPtr[j], a.ColPtr[j+1]
		simd.ScatterAxpy(x[j], y, a.Val[p0:p1], a.RowIdx[p0:p1])
	}
}

// ToCSR converts to compressed sparse row format.
func (a *CSC) ToCSR() *CSR {
	rowPtr := make([]int, a.M+1)
	for _, r := range a.RowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < a.M; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, a.NNZ())
	val := make([]float64, a.NNZ())
	next := make([]int, a.M)
	copy(next, rowPtr[:a.M])
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			q := next[r]
			colIdx[q] = j
			val[q] = a.Val[p]
			next[r]++
		}
	}
	return &CSR{M: a.M, N: a.N, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// ToDense expands to a dense matrix.
func (a *CSC) ToDense() *mat.Dense {
	d := mat.NewDense(a.M, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			d.Set(a.RowIdx[p], j, a.Val[p])
		}
	}
	return d
}
