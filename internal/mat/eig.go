package mat

import (
	"fmt"
	"math"
)

// LargestEigSym returns the algebraic largest eigenvalue of the
// symmetric matrix g. The solvers call this on the µ×µ Gram blocks AᵀᵢAᵢ
// (Alg. 1 line 10 and Alg. 2 line 14 of the paper) to obtain the optimal
// Lipschitz constant, whose reciprocal is the step size.
//
// The method is direct, with no convergence test on the spectrum: g is
// reduced to a symmetric tridiagonal T by n−2 Householder reflections
// (about (4/3)n³ flops), and T's largest eigenvalue is bisected from its
// Gershgorin interval until the bracket is within 2·eps·‖T‖. A Laguerre
// estimate fenced by two Sturm counts decides all but the last few
// halvings without a count of their own, and the result has the bits of
// bisection that counts every midpoint. It is the eigenvalue to
// rounding, never an underestimate beyond it, so 1/λ is the safe step.
//
// g is first scaled, exactly, by a power of two that puts its largest
// entry in [½, 1), and the eigenvalue is scaled back by the same power:
// no intermediate can overflow, so every finite input gives a finite
// result or ±Inf (the eigenvalue itself overflowing). A matrix with a
// NaN or ±Inf entry gives NaN; the zero matrix gives 0. g is symmetric
// by convention: only its upper triangle (i ≤ j) is read, and the strict
// lower triangle may hold anything, NaN included. For a g whose halves
// agree that is the eigenvalue of g itself, bit for bit.
func LargestEigSym(g *Dense) float64 {
	return LargestEigSymScratch(g, make([]float64, eigScratchLen(g.R)))
}

// LargestEigSymScratch is LargestEigSym with its working storage taken
// from scratch instead of allocated: the form for callers that take an
// eigenvalue per iteration. scratch must hold at least n² + 3n words for
// an n×n g (its contents are ignored and overwritten); g is not written,
// and only its upper triangle is read.
func LargestEigSymScratch(g *Dense, scratch []float64) float64 {
	n := g.R
	if g.C != n {
		panic(fmt.Sprintf("mat: LargestEigSym non-square %dx%d", g.R, g.C))
	}
	if need := eigScratchLen(n); len(scratch) < need {
		panic(fmt.Sprintf("mat: LargestEigSymScratch of a %dx%d matrix needs %d scratch words (n² + 3n), got %d", n, n, need, len(scratch)))
	}
	d, e, e2, k, special := scaledTridiag(g, scratch)
	if d == nil {
		return special
	}
	return math.Ldexp(largestTridiag(d, e, e2), -k)
}

// scaledTridiag scales a symmetric copy of g's upper triangle in scratch
// by 2^k so that its largest |entry| is in [½, 1), and returns the
// tridiagonal form of the copy and k. A NaN or ±Inf entry, or the zero
// matrix, has no such form: d is nil and special is the eigenvalue (NaN
// or 0). Only entries i ≤ j of g are read, in the one pass that finds
// the largest; the copy's lower triangle is their mirror, so
// tridiagonalize sees the symmetric matrix they define.
func scaledTridiag(g *Dense, scratch []float64) (d, e, e2 []float64, k int, special float64) {
	n := g.R
	a := scratch[:n*n]
	var amax float64
	for i := 0; i < n; i++ {
		for j, x := range g.Data[i*n+i : (i+1)*n] {
			ax := math.Abs(x)
			if !(ax <= math.MaxFloat64) {
				return nil, nil, nil, 0, math.NaN() // NaN or ±Inf entry
			}
			if ax > amax { // finite and not −0: a compare is max without its NaN and ±0 cases
				amax = ax
			}
			a[i*n+i+j], a[(i+j)*n+i] = x, x
		}
	}
	if amax == 0 {
		return nil, nil, nil, 0, 0
	}
	// Scale by 2^k so that the largest |entry| is in [½, 1). 2^k itself
	// may not be a float64 (k ≤ 1074 for a subnormal amax), so it is
	// applied in two halves; both are exact for every entry that stays
	// normal, and the ones that do not are below eps·‖g‖.
	_, ex := math.Frexp(amax)
	k = -ex
	Scal(math.Ldexp(1, k/2), a)
	Scal(math.Ldexp(1, k-k/2), a)
	d, e, e2 = tridiagonalize(a, n, scratch[n*n:])
	return d, e, e2, k, 0
}

// eigScratchLen is the scratch LargestEigSymScratch needs for an n×n
// matrix: the working copy and the diagonal, off-diagonal and squared
// off-diagonal of its tridiagonal form.
func eigScratchLen(n int) int { return n*n + 3*n }

// tridiagonalize reduces the symmetric n×n row-major a, in place, to the
// tridiagonal T = QᵀaQ with n−2 Householder reflections, and returns T's
// diagonal d, off-diagonal e (e[i] couples rows i and i+1) and e², all
// carved from work (3n words).
//
// Reflection k maps column k below the diagonal to (β, 0, …, 0) in the
// LAPACK dlarfg form: v = x/(x₀−β) with v₀ = 1 and τ = (β−x₀)/β ∈ [1, 2],
// so every |vᵢ| ≤ 1 even when ‖x‖ is tiny. v is stored over row k's tail,
// which by symmetry is column k and is not read again. The trailing block
// is then updated by the symmetric rank-2 form A −= v·wᵀ + w·vᵀ with
// p = τ·A·v and w = p − (τ/2)(pᵀv)·v; each entry's update is the same
// two products in either order, so the block stays exactly symmetric.
func tridiagonalize(a []float64, n int, work []float64) (d, e, e2 []float64) {
	d, e, e2 = work[:n], work[n:2*n], work[2*n:3*n]
	w := d // d is only written after the last reflection
	// Column n−2 has one entry below the diagonal, so its step takes
	// the small-sigma branch: it only records the last off-diagonal.
	for k := 0; k < n-1; k++ {
		m := n - k - 1
		x := a[k*n+k+1 : (k+1)*n]
		var sigma float64
		for _, xi := range x[1:] {
			sigma += xi * xi
		}
		// A tail this small is dropped: that moves no eigenvalue by more
		// than 2⁻¹⁰⁰, far below eps·‖T‖ (‖T‖ ≥ ½ after scaling). A larger
		// sigma is a normal number, accurate to rounding; a subnormal
		// one would make β and τ disagree and the reflection
		// non-orthogonal.
		if sigma <= 0x1p-200 {
			e[k] = x[0]
			continue
		}
		beta := -math.Copysign(math.Sqrt(x[0]*x[0]+sigma), x[0])
		tau := (beta - x[0]) / beta
		inv := 1 / (x[0] - beta)
		e[k] = beta
		x[0] = 1
		for i := 1; i < m; i++ {
			x[i] *= inv
		}
		var pv float64
		for i := 0; i < m; i++ {
			var s float64
			for j, r := range a[(k+1+i)*n+k+1 : (k+2+i)*n] {
				s += r * x[j]
			}
			s *= tau
			w[i] = s
			pv += s * x[i]
		}
		half := 0.5 * tau * pv
		for i := 0; i < m; i++ {
			w[i] -= half * x[i]
		}
		for i := 0; i < m; i++ {
			row := a[(k+1+i)*n+k+1 : (k+2+i)*n]
			vi, wi := x[i], w[i]
			for j := range row {
				row[j] -= vi*w[j] + wi*x[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
	for i := 0; i < n-1; i++ {
		e2[i] = e[i] * e[i]
	}
	return d, e, e2
}

// largestTridiag returns the largest eigenvalue of the symmetric
// tridiagonal T with diagonal d and off-diagonal e (e2 = e²), scaled as
// LargestEigSymScratch leaves it: entries at most n in magnitude and
// ‖T‖ ≥ ½. The bracket starts at [max dᵢ, max(dᵢ + |eᵢ₋₁| + |eᵢ|)]:
// a diagonal entry is a Rayleigh quotient, and the upper end is
// Gershgorin's. Each halving keeps λmax ∈ [lo, hi], so a diagonal T
// (lo == hi) is returned exactly. The upper end is returned: the step
// 1/λ must not exceed 1/λmax by more than rounding.
//
// The halvings are decided by Sturm counts, but most of them need none:
// fence certifies a window [a, b] with count(a) < n and count(b) = n
// around a Laguerre estimate of λmax, and a midpoint at or above b is
// then "above", one at or below a "below", without a count. Only the
// last few midpoints, inside (a, b), run sturmBelow: on the benchmark's
// 8×8 Grams, 2.5 counts per block, two of them the certificate, and 3.3
// Laguerre passes, against 45.8 counts for counting every midpoint. The
// loop visits the same midpoints and returns the same hi, bit for bit,
// as one that counts every midpoint, because every skipped count has the
// value it would have had: see sturmBelow for why its count is monotone
// in x. An uncertified window is (−∞, +∞), and the loop counts every
// midpoint.
func largestTridiag(d, e, e2 []float64) float64 {
	const (
		eps = 0x1p-52
		// The first bracket is at most ‖T‖ wide, so 52 halvings reach
		// 2·eps·‖T‖; the cap only bounds a loop on input that broke
		// that arithmetic.
		maxBisect = 64
	)
	n := len(d)
	lo, hi, tnorm := bracket(d, e)
	if !(hi-lo > 2*eps*tnorm) {
		return hi // the bracket is already tight: no midpoint to decide
	}
	a, b := fence(d, e2, hi, tnorm)
	for it := 0; it < maxBisect && hi-lo > 2*eps*tnorm; it++ {
		mid := lo + 0.5*(hi-lo)
		if mid <= lo || mid >= hi {
			break // the bracket stopped shrinking
		}
		if mid >= b || mid > a && sturmBelow(d, e2, mid) == n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// bracket returns T's first bracket [lo, hi] on λmax and ‖T‖∞.
func bracket(d, e []float64) (lo, hi, tnorm float64) {
	n := len(d)
	lo, hi = math.Inf(-1), math.Inf(-1)
	for i, di := range d {
		var r float64
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < n-1 {
			r += math.Abs(e[i])
		}
		lo, hi, tnorm = max(lo, di), max(hi, di+r), max(tnorm, math.Abs(di)+r)
	}
	return lo, hi, tnorm
}

// fence returns a window [a, b] with sturmBelow(a) < n and
// sturmBelow(b) = n, both counted, around an estimate of λmax, or
// (−∞, +∞) when it cannot certify one.
//
// The estimate is Laguerre's iteration from x0 ≥ λmax (the Gershgorin
// end). On a polynomial with only real roots, started above them all, it
// decreases monotonically toward the largest and converges cubically to
// a simple one (Li & Zeng, "Laguerre's iteration in solving the
// symmetric tridiagonal eigenproblem — revisited", SIAM J. Sci. Comput.
// 15(5), 1994). G = Σ 1/(x−λⱼ) and H = Σ 1/(x−λⱼ)² come from the pivots
// qᵢ of T − x·I and their first two x-derivatives: det(T − x·I) = Π qᵢ,
// so G = Σ q′ᵢ/qᵢ and H = Σ (q′ᵢ/qᵢ)² − q″ᵢ/qᵢ. The iteration stops once
// a step is at most 2⁻²⁰‖T‖, or when a pivot is not negative: x is then
// at λmax to rounding (an isolated top diagonal entry, a common block
// shape, is reached exactly), and the window goes there all the same.
//
// The window is x ± eps·‖T‖/2, narrower than bisection's last bracket
// (2·eps·‖T‖) so that most of the last midpoints fall outside it too;
// it is widened 8-fold up to three times while either count disagrees.
// Rounding in the estimate — FMA contraction included — can only move
// the window or lose it; the certificate counts are sturmBelow's own.
func fence(d, e2 []float64, x0, tnorm float64) (a, b float64) {
	const (
		eps         = 0x1p-52
		maxLaguerre = 16
		widenings   = 3
	)
	n := len(d)
	fn, x := float64(n), x0
laguerre:
	for it := 0; it < maxLaguerre; it++ {
		q, dq, ddq := d[0]-x, -1.0, 0.0
		var g, h float64
		for i := 0; ; i++ {
			if !(q < 0) {
				break laguerre // x is not above the spectrum: certify there
			}
			r := 1 / q
			gr, hr := dq*r, ddq*r // q′ᵢ/qᵢ and q″ᵢ/qᵢ
			g += gr
			h += gr*gr - hr
			if i == n-1 {
				break
			}
			s := e2[i] * r // the e²ᵢ/qᵢ of the next pivot
			q, dq, ddq = d[i+1]-x-s, s*gr-1, s*(hr-2*gr*gr)
		}
		step := fn / (g + math.Sqrt(max(0, (fn-1)*(fn*h-g*g))))
		if !(step > 0) {
			break // NaN or no progress: certify where x is
		}
		x -= step
		if step <= 0x1p-20*tnorm {
			break
		}
	}
	for w, k := 0.5*eps*tnorm, 0; k <= widenings; w, k = 8*w, k+1 {
		a, b = x-w, x+w
		if sturmBelow(d, e2, a) < n && sturmBelow(d, e2, b) == n {
			return a, b
		}
	}
	return math.Inf(-1), math.Inf(1)
}

// sturmBelow counts T's eigenvalues below x: by Sylvester's law of
// inertia, the negative pivots qᵢ = (dᵢ − x) − e²ᵢ₋₁/qᵢ₋₁ of the LDLᵀ
// factorization of T − x·I. A zero pivot is nudged to −pivmin, and so
// counted, before it divides: the next quotient is never 0/0. An
// infinite pivot only zeroes the next quotient, which is the right
// limit. The count is read from the sign bit so it costs no branch.
//
// The evaluation order is load-bearing: largestTridiag skips counts on
// the strength of this count being nondecreasing in x. That is Kahan's
// theorem that the floating-point Sturm count is monotone when the
// arithmetic is (Kahan, "Accurate eigenvalues of a symmetric
// tri-diagonal matrix", 1966; Demmel, Dhillon & Ren, "On the
// correctness of some bisection-like parallel eigenvalue algorithms in
// floating point arithmetic", ETNA 3, 1995). Its hypotheses, as written
// here: every operation rounds to nearest, which is monotone, and none
// is fused (there is no multiply to contract); e² is computed once, not
// from x; and the pivot is (dᵢ − x) minus the rounded e²ᵢ₋₁/qᵢ₋₁. With
// the phase θᵢ = π·(negative pivots before i) + arccot qᵢ, that pivot is
// nonincreasing in x, and e²/qᵢ₋₁ is nondecreasing in θᵢ₋₁ between two
// sign changes of the pivot (through qᵢ₋₁ = ±∞ it passes ∓0), so every
// θᵢ — and the count, the nearest integer to θₙ/π — is nondecreasing
// in x. The one step that is not monotone is the nudge: a pivot of
// exactly 0 becomes −pivmin, below a negative subnormal pivot at a
// larger x (TestSturmCountNudgeIsNotMonotone). That needs the larger x
// to give a subnormal pivot, and so to lie within 2⁻⁹⁶⁸ of some dᵢ:
// otherwise both terms of the pivot exceed 2⁻⁹⁶⁹ in magnitude, are
// multiples of 2⁻¹⁰²¹, and differ by 0 or a normal number. In each pair
// largestTridiag relates — a midpoint and a fence end — the larger point
// is at or above a midpoint, and every midpoint lies above max dᵢ by
// more than eps·‖T‖/2 ≥ 2⁻⁵⁴.
func sturmBelow(d, e2 []float64, x float64) int {
	const pivmin = 0x1p-1022
	c, q := 0, d[0]-x
	for i := 1; ; i++ {
		if q == 0 {
			q = -pivmin
		}
		c += int(math.Float64bits(q) >> 63)
		if i == len(d) {
			return c
		}
		q = d[i] - x - e2[i-1]/q
	}
}

// EigSymJacobi computes all eigenvalues of the symmetric matrix a using the
// cyclic Jacobi method, returning them in ascending order. It is the
// tests' oracle for LargestEigSym. a is not modified.
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
