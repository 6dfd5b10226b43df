package stream

import (
	"fmt"

	"saco/internal/mat"
	"saco/internal/sparse"
)

// ColStream is the out-of-core core.ColMatrix view of a Dataset: the
// access pattern of the Lasso CD/BCD solvers (sampled column Grams,
// products against the row-partitioned residual, residual updates)
// computed one shard at a time. LayoutCSC is its layout: every kernel
// consumes the shards in their native column-major decoded form, with
// zero CSR→CSC conversions (CacheStats.Conversions stays 0). On a
// LayoutCSR store each shard converts once per load, bitwise the same.
//
// Bitwise contract: with the sequential backend, every kernel threads
// its accumulators through the shards in row order — ColGram continues
// each entry's merge sum across blocks (the upper triangle only),
// ColTMulVec continues each dst[k], ColMulAdd and MulVec touch disjoint
// row slices — so the summation order is exactly that of the in-memory
// sparse.CSC kernels and the solver trajectory is bitwise identical.
// This is the shared-memory/out-of-core counterpart of the paper's
// claim that the s-step reformulation preserves the classical iterates:
// here the partitioning moves data between disk and RAM instead of
// between ranks, and nothing about the arithmetic changes.
//
// The multicore backend does not apply (the view does not implement the
// kernel-parallel capability); solves on it run sequentially regardless
// of the Exec knob.
type ColStream struct {
	d *Dataset
}

// Cols returns the column-access streaming view (for saco.Lasso,
// saco.LassoPath, saco.LambdaMax).
func (d *Dataset) Cols() *ColStream { return &ColStream{d: d} }

// Dims returns (rows, columns).
func (v *ColStream) Dims() (int, int) { return v.d.m, v.d.n }

// ColNormSq returns ‖A_:j‖², accumulated across shards in row order.
func (v *ColStream) ColNormSq(j int) float64 {
	var s float64
	mustLoad(0, v.d.forEachCSC(func(_ ShardInfo, a *sparse.CSC) {
		s = a.ColNormSqAcc(j, s)
	}))
	return s
}

// ColTMulVec computes dst[k] = A_:cols[k] · v (dst = A_Sᵀ·v), streaming
// the shards with v sliced to each block's rows.
func (v *ColStream) ColTMulVec(cols []int, vec []float64, dst []float64) {
	if len(vec) != v.d.m || len(dst) != len(cols) {
		panic(fmt.Sprintf("stream: ColTMulVec shape mismatch A=%dx%d len(v)=%d", v.d.m, v.d.n, len(vec)))
	}
	for k := range dst {
		dst[k] = 0
	}
	mustLoad(0, v.d.forEachCSC(func(info ShardInfo, a *sparse.CSC) {
		a.ColTMulVecAcc(cols, vec[info.Row0:info.Row0+info.Rows], dst)
	}))
}

// ColMulAdd computes vec += A_S·coef. Each shard scatters into its own
// row slice, so the per-row addition order matches the in-memory CSC.
func (v *ColStream) ColMulAdd(cols []int, coef []float64, vec []float64) {
	if len(vec) != v.d.m || len(coef) != len(cols) {
		panic("stream: ColMulAdd shape mismatch")
	}
	mustLoad(0, v.d.forEachCSC(func(info ShardInfo, a *sparse.CSC) {
		a.ColMulAdd(cols, coef, vec[info.Row0:info.Row0+info.Rows])
	}))
}

// ColGram computes dst = A_SᵀA_S: the per-shard Gram contributions of
// the s-step batch (Alg. 2 lines 10–12) accumulated into the upper
// triangle, the strict lower triangle left +0 as sparse.CSC.ColGram
// leaves it.
func (v *ColStream) ColGram(cols []int, dst *mat.Dense) {
	if dst.R != len(cols) || dst.C != len(cols) {
		panic("stream: ColGram dst shape mismatch")
	}
	dst.Zero()
	mustLoad(0, v.d.forEachCSC(func(_ ShardInfo, a *sparse.CSC) {
		a.ColGramAcc(cols, dst)
	}))
}

// MulVec computes y = A·x one row block at a time.
func (v *ColStream) MulVec(x, y []float64) {
	if len(x) != v.d.n || len(y) != v.d.m {
		panic("stream: MulVec shape mismatch")
	}
	mustLoad(0, v.d.forEachCSC(func(info ShardInfo, a *sparse.CSC) {
		a.MulVec(x, y[info.Row0:info.Row0+info.Rows])
	}))
}
