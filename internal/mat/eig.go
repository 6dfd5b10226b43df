package mat

import (
	"fmt"
	"math"
)

// LargestEigSym returns the largest eigenvalue of the symmetric
// positive-semidefinite matrix g using power iteration. The solvers call
// this on the µ×µ Gram blocks AᵀᵢAᵢ (Alg. 1 line 10 and Alg. 2 line 14 of
// the paper) to obtain the optimal Lipschitz constant.
//
// The start vector and iteration schedule are deterministic so that every
// simulated rank computes a bitwise-identical result from identical input.
// For PSD Gram matrices power iteration converges geometrically in
// (λ₁/λ₂)ᵏ; maxIter 200 with tol 1e-12 is far tighter than the step-size
// use requires.
func LargestEigSym(g *Dense) float64 {
	return LargestEigSymScratch(g, make([]float64, 2*g.R))
}

// LargestEigSymScratch is LargestEigSym with the two iteration vectors
// taken from scratch (at least 2·g.R long, contents ignored) instead of
// allocated: the form for callers that take an eigenvalue per iteration.
func LargestEigSymScratch(g *Dense, scratch []float64) float64 {
	n := g.R
	if g.C != n {
		panic(fmt.Sprintf("mat: LargestEigSym non-square %dx%d", g.R, g.C))
	}
	switch n {
	case 0:
		return 0
	case 1:
		return g.Data[0]
	}
	const (
		maxIter = 200
		tol     = 1e-12
	)
	// Deterministic start with a mild index tilt so the start vector is
	// never orthogonal to the dominant eigenvector of a permutation-
	// symmetric matrix.
	v, w := scratch[:n], scratch[n:2*n]
	clear(w) // Gemv forms 0·w[i]: stale NaN or Inf must not reach it
	for i := range v {
		v[i] = 1 + float64(i)/float64(n)
	}
	Scal(1/Nrm2(v), v)
	lambda := 0.0
	for it := 0; it < maxIter; it++ {
		Gemv(1, g, v, 0, w)
		nrm := Nrm2(w)
		if nrm == 0 {
			return 0 // g is the zero matrix
		}
		Scal(1/nrm, w)
		v, w = w, v
		next := rayleigh(g, v, w)
		if math.Abs(next-lambda) <= tol*math.Max(1, math.Abs(next)) {
			return next
		}
		lambda = next
	}
	return lambda
}

// rayleigh returns vᵀgv using scratch for the intermediate product.
func rayleigh(g *Dense, v, scratch []float64) float64 {
	Gemv(1, g, v, 0, scratch)
	return Dot(v, scratch)
}

// EigSymJacobi computes all eigenvalues of the symmetric matrix a using the
// cyclic Jacobi method, returning them in ascending order. It is used as a
// cross-check oracle for LargestEigSym in tests and by the condition-number
// diagnostics for SA Gram matrices. a is not modified.
func EigSymJacobi(a *Dense) []float64 {
	n := a.R
	if a.C != n {
		panic(fmt.Sprintf("mat: EigSymJacobi non-square %dx%d", a.R, a.C))
	}
	w := a.Clone()
	const (
		maxSweeps = 100
		tol       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= tol*frobNorm(w) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, p, q)
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w.At(i, i)
	}
	insertionSort(eig)
	return eig
}

func jacobiRotate(w *Dense, p, q int) {
	n := w.R
	apq := w.At(p, q)
	if apq == 0 {
		return
	}
	app, aqq := w.At(p, p), w.At(q, q)
	tau := (aqq - app) / (2 * apq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for i := 0; i < n; i++ {
		wpi, wqi := w.At(p, i), w.At(q, i)
		w.Set(p, i, c*wpi-s*wqi)
		w.Set(q, i, s*wpi+c*wqi)
	}
}

func offDiagNorm(a *Dense) float64 {
	var s float64
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			if i != j {
				v := a.At(i, j)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

func frobNorm(a *Dense) float64 {
	var s float64
	for _, v := range a.Data {
		s += v * v
	}
	if s == 0 {
		return 1
	}
	return math.Sqrt(s)
}

func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
