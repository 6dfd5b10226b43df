package core

import (
	"math"

	"saco/internal/mat"
)

var inf = math.Inf(1)

// svmPrimal returns P(x) = ½‖x‖² + λ·Σ loss(1 − bᵢ·marginᵢ) for the
// given margins A·x.
func svmPrimal(margins, b []float64, lambda float64, loss SVMLoss) float64 {
	var sum float64
	for i, m := range margins {
		xi := 1 - b[i]*m
		if xi <= 0 {
			continue
		}
		if loss == SVML2 {
			sum += xi * xi
		} else {
			sum += xi
		}
	}
	return lambda * sum
}

// svmObjectives returns the primal value P(x), dual value D(α) and the
// duality gap P − D from ‖x‖², already reduced: a rank of a distributed
// solve owns only a column slice of x and sums the squared norms over
// the ranks. Margins must hold A·x; γ is the diagonal regularization of
// the dual (0 for L1, 1/(2λ) for L2). Strong duality makes the gap a
// rigorous optimality certificate, the criterion used in Fig. 5 and
// Table V.
func svmObjectives(xNormSq float64, alpha, margins, b []float64, lambda, gamma float64, loss SVMLoss) (primal, dual, gap float64) {
	primal = 0.5*xNormSq + svmPrimal(margins, b, lambda, loss)
	var sumAlpha, alphaSq float64
	for _, a := range alpha {
		sumAlpha += a
		alphaSq += a * a
	}
	dual = sumAlpha - 0.5*xNormSq - 0.5*gamma*alphaSq
	return primal, dual, primal - dual
}

// LambdaMaxL1 returns ‖Aᵀb‖_∞, the smallest λ for which the Lasso
// solution is identically zero. Experiments set λ as a fraction of it —
// the substitution (documented in DESIGN.md) for the paper's
// λ = 100·σ_min(A), which needs a full SVD this repository's problem
// sizes make pointless.
func LambdaMaxL1(a ColMatrix, b []float64) float64 {
	_, n := a.Dims()
	dst := make([]float64, n)
	cols := make([]int, n)
	for j := range cols {
		cols[j] = j
	}
	a.ColTMulVec(cols, b, dst)
	return mat.AmaxAbs(dst)
}

// clip returns v clamped to [lo, hi].
func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
