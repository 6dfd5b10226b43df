package sparse

import "saco/internal/mat"

// Atomic-vector kernels for the asynchronous (HOGWILD!-style) backend.
//
// The async Lasso in internal/core shares one iterate and one residual
// image across workers with no synchronization beyond element atomicity,
// so its kernels must read and write those vectors through
// mat.AtomicVec instead of plain slices. Each kernel below mirrors its
// plain counterpart's loop order exactly — a single-worker async solve
// therefore reproduces the sequential solver's arithmetic bit for bit,
// which is the anchor the async correctness tests are built on.
//
// Only the index-sampled column kernels its inner loop touches are
// provided; whole-matrix products (MulVec) are taken on quiescent
// snapshots after the workers join, where plain kernels apply.

// ColTMulVecAtomic computes dst[k] = A_:cols[k] · v with atomic loads of
// v — the gradient read A_Sᵀ·r of async coordinate descent, racing
// against concurrent residual updates.
func (a *CSC) ColTMulVecAtomic(cols []int, v *mat.AtomicVec, dst []float64) {
	if v.Len() != a.M || len(dst) < len(cols) {
		panic("sparse: ColTMulVecAtomic shape mismatch")
	}
	for k, j := range cols {
		var s float64
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s += a.Val[p] * v.Load(a.RowIdx[p])
		}
		dst[k] = s
	}
}

// ColMulAddAtomic performs v += A_S·coef with per-element atomic adds —
// the racy residual update r += A_S·Δx of async coordinate descent.
// Concurrent updates to one row interleave in arbitrary order but none
// is lost.
func (a *CSC) ColMulAddAtomic(cols []int, coef []float64, v *mat.AtomicVec) {
	if v.Len() != a.M || len(coef) < len(cols) {
		panic("sparse: ColMulAddAtomic shape mismatch")
	}
	for k, j := range cols {
		c := coef[k]
		if c == 0 {
			continue
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			v.Add(a.RowIdx[p], c*a.Val[p])
		}
	}
}
