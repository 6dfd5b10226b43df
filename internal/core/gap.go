package core

import (
	"math"

	"saco/internal/mat"
)

// LassoDualityGap returns a rigorous optimality certificate for the L1
// problem min ½‖Ax−b‖² + λ‖x‖₁ at the point x with residual r = A·x − b.
//
// The Fenchel dual is max_u −½‖u‖² − bᵀu subject to ‖Aᵀu‖∞ ≤ λ; the
// residual scaled into the dual-feasible region,
// u = min(1, λ/‖Aᵀr‖∞)·r, gives the standard dual candidate, and
// P(x) − D(u) ≥ P(x) − P(x*) bounds the true suboptimality. Computing the
// certificate costs one full Aᵀr product (O(nnz)), so solvers evaluate it
// at checkpoints, not every iteration — the same economy the SVM solvers
// apply to their duality gap (§VI).
func LassoDualityGap(a ColMatrix, b, x, r []float64, lambda float64) float64 {
	_, n := a.Dims()
	corr := make([]float64, n)
	cols := make([]int, n)
	for j := range cols {
		cols[j] = j
	}
	a.ColTMulVec(cols, r, corr)
	cInf := mat.AmaxAbs(corr)
	scale := 1.0
	if cInf > lambda && cInf > 0 {
		scale = lambda / cInf
	}
	primal := 0.5*mat.Nrm2Sq(0, r) + lambda*mat.Asum(x)
	// D(u) = −½‖u‖² − bᵀu with u = scale·r.
	dual := -0.5*scale*scale*mat.Nrm2Sq(0, r) - scale*mat.Dot(b, r)
	gap := primal - dual
	if gap < 0 && gap > -1e-12*math.Max(1, math.Abs(primal)) {
		gap = 0 // clamp roundoff-negative gaps
	}
	return gap
}
