package core

import "math"

// Regularizer is a convex penalty g with a computable proximal operator,
// the interface the paper requires of its regularization functions (§I:
// "they hold more generally for other regularization functions with
// well-defined proximal operators").
type Regularizer interface {
	// Prox overwrites v with prox_{eta·g}(v) = argmin_u eta·g(u) + ½‖u−v‖².
	// Solvers call it on sampled subvectors, so g must be separable across
	// the sampled coordinates (true for L1 and elastic net; group lasso is
	// applied one whole group at a time, see GroupLasso).
	Prox(eta float64, v []float64)
	// Value returns g(x) for a full-length solution vector.
	Value(x []float64) float64
	// Name identifies the penalty in reports.
	Name() string
}

// SoftThreshold applies the scalar soft-thresholding operator of eq. (2):
// S_a(v) = sign(v)·max(|v|−a, 0).
func SoftThreshold(a, v float64) float64 {
	switch {
	case v > a:
		return v - a
	case v < -a:
		return v + a
	default:
		return 0
	}
}

// L1 is the Lasso penalty g(x) = λ‖x‖₁.
type L1 struct {
	Lambda float64
}

// Prox applies elementwise soft thresholding with threshold eta·λ.
func (r L1) Prox(eta float64, v []float64) {
	a := eta * r.Lambda
	for i, x := range v {
		v[i] = SoftThreshold(a, x)
	}
}

// Value returns λ‖x‖₁.
func (r L1) Value(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return r.Lambda * s
}

// Name returns "l1".
func (L1) Name() string { return "l1" }

// fixer is the optional rule a Regularizer may have for blocks its prox
// cannot move: fixed(w, grad) reports that, for the block's current value
// w and assembled gradient grad, the Lasso step writes Δ = +0 whatever
// its step size η ∈ [0, +∞] or the block's λmax (NaN and ±Inf included).
// The inner step then skips the eigensolve (lassoBlock.prox).
type fixer interface {
	fixed(w, grad []float64) bool
}

// fixed is true when every w is ±0 and every |grad| ≤ λ (a NaN gradient
// fails the test). Then Δ = +0 bitwise for every step the full path
// could take:
//   - with η = 1/(scale·λmax), the soft threshold sees a = fl(η·λ) and
//     v = w − fl(η·g) = −fl(η·g) (w is ±0, so a fused multiply-add gives
//     the same value). Rounding is monotone, so |fl(η·g)| ≤ fl(η·λ): v
//     is neither > a nor < −a. At η = +∞, η·g is ±∞ against a = +∞, or
//     NaN (g = 0 or λ = 0), and every comparison with NaN is false;
//   - with λmax ≤ 0 or NaN, v = w = ±0 against a = bigEta·λ ≥ 0;
//
// so SoftThreshold takes its default branch, gv = +0 and Δ = +0 − w = +0.
// The elastic net has no such rule: its threshold η·λ·α rounds twice, so
// |g| ≤ λα does not bound |fl(η·g)| by it.
func (r L1) fixed(w, grad []float64) bool {
	for a, x := range w {
		if x != 0 || !(math.Abs(grad[a]) <= r.Lambda) {
			return false
		}
	}
	return true
}

// ElasticNet is g(x) = λ·(α‖x‖₁ + (1−α)/2·‖x‖₂²), the paper's second
// sparsity-inducing penalty. α = 1 degenerates to L1, α = 0 to ridge.
type ElasticNet struct {
	Lambda float64
	Alpha  float64
}

// Prox applies the elastic-net proximal operator
// S_{ηλα}(v) / (1 + ηλ(1−α)) elementwise.
func (r ElasticNet) Prox(eta float64, v []float64) {
	a := eta * r.Lambda * r.Alpha
	den := 1 + eta*r.Lambda*(1-r.Alpha)
	for i, x := range v {
		v[i] = SoftThreshold(a, x) / den
	}
}

// Value returns λ(α‖x‖₁ + (1−α)/2‖x‖₂²).
func (r ElasticNet) Value(x []float64) float64 {
	var l1, l2 float64
	for _, v := range x {
		l1 += math.Abs(v)
		l2 += v * v
	}
	return r.Lambda * (r.Alpha*l1 + (1-r.Alpha)/2*l2)
}

// Name returns "elastic-net".
func (ElasticNet) Name() string { return "elastic-net" }

// GroupLasso is g(x) = λ·Σ_g ‖x̃_g‖₂ over disjoint coordinate groups. The
// solvers pair it with group sampling (LassoOptions.Groups): each
// iteration updates one whole group, and Prox receives exactly that
// group's subvector, on which the penalty is a single Euclidean norm with
// the closed-form block soft-threshold.
type GroupLasso struct {
	Lambda float64
	Groups [][]int
}

// Prox applies the block soft-threshold v·max(0, 1 − ηλ/‖v‖) treating v as
// one group.
func (r GroupLasso) Prox(eta float64, v []float64) {
	var nrm float64
	for _, x := range v {
		nrm += x * x
	}
	nrm = math.Sqrt(nrm)
	if nrm == 0 {
		return
	}
	scale := 1 - eta*r.Lambda/nrm
	if scale <= 0 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i := range v {
		v[i] *= scale
	}
}

// Value returns λ·Σ_g ‖x_g‖₂.
func (r GroupLasso) Value(x []float64) float64 {
	var s float64
	for _, g := range r.Groups {
		var nrm float64
		for _, j := range g {
			nrm += x[j] * x[j]
		}
		s += math.Sqrt(nrm)
	}
	return r.Lambda * s
}

// Name returns "group-lasso".
func (GroupLasso) Name() string { return "group-lasso" }
