package mat_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"saco/internal/datagen"
	"saco/internal/mat"
	"saco/internal/rng"
)

// randPSD builds AᵀA for a random (n+2)×n A, guaranteeing symmetric PSD
// input.
func randPSD(rng *rand.Rand, n int) *mat.Dense {
	return gramOf(randMatrix(rng, n+2, n))
}

func randMatrix(rng *rand.Rand, r, c int) *mat.Dense {
	a := mat.NewDense(r, c)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// gramOf returns AᵀA.
func gramOf(a *mat.Dense) *mat.Dense {
	n := a.C
	g := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < a.R; k++ {
				g.Data[i*n+j] += a.At(k, i) * a.At(k, j)
			}
		}
	}
	return g
}

func near(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLargestEigSymScalarAndEmpty(t *testing.T) {
	if got := mat.LargestEigSym(mat.NewDense(0, 0)); got != 0 {
		t.Fatalf("empty eig = %v", got)
	}
	g := mat.NewDenseData(1, 1, []float64{4.5})
	if got := mat.LargestEigSym(g); got != 4.5 {
		t.Fatalf("1x1 eig = %v", got)
	}
}

func TestLargestEigSymDiagonal(t *testing.T) {
	g := mat.NewDense(3, 3)
	g.Set(0, 0, 1)
	g.Set(1, 1, 7)
	g.Set(2, 2, 3)
	if got := mat.LargestEigSym(g); !near(got, 7, 1e-10) {
		t.Fatalf("diag eig = %v, want 7", got)
	}
}

func TestLargestEigSymZeroMatrix(t *testing.T) {
	if got := mat.LargestEigSym(mat.NewDense(4, 4)); got != 0 {
		t.Fatalf("zero-matrix eig = %v", got)
	}
}

func TestLargestEigSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		g := randPSD(rng, n)
		power := mat.LargestEigSym(g)
		eig := mat.EigSymJacobi(g)
		jac := eig[len(eig)-1]
		if !near(power, jac, 1e-6) {
			t.Fatalf("trial %d: power=%v jacobi=%v", trial, power, jac)
		}
	}
}

func TestEigSymJacobiKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	g := mat.NewDenseData(2, 2, []float64{2, 1, 1, 2})
	eig := mat.EigSymJacobi(g)
	if !near(eig[0], 1, 1e-12) || !near(eig[1], 3, 1e-12) {
		t.Fatalf("eig = %v, want [1 3]", eig)
	}
	// Input must be untouched.
	if g.At(0, 1) != 1 {
		t.Fatal("EigSymJacobi modified its input")
	}
}

// Property: trace(G) == sum of eigenvalues for random PSD matrices.
func TestJacobiTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := randPSD(rng, n)
		var tr float64
		for i := 0; i < n; i++ {
			tr += g.At(i, i)
		}
		var sum float64
		for _, ev := range mat.EigSymJacobi(g) {
			sum += ev
		}
		return near(tr, sum, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the power-iteration eigenvalue dominates the Rayleigh quotient
// of random probe vectors (λmax = sup_v vᵀGv/vᵀv).
func TestLargestEigUpperBoundsRayleighProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := randPSD(rng, n)
		lmax := mat.LargestEigSym(g)
		for probe := 0; probe < 5; probe++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			nv := mat.Nrm2Sq(v)
			if nv == 0 {
				continue
			}
			w := make([]float64, n)
			mat.GemvParallel(1, g, v, 0, w)
			if mat.Dot(v, w)/nv > lmax*(1+1e-6)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLargestEigSymScratchSameBits: the caller-scratch form is the same
// arithmetic — whatever the scratch held, and with it reused across
// sizes — and allocates nothing.
func TestLargestEigSymScratchSameBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	scratch := make([]float64, 2*12)
	for _, n := range []int{0, 1, 2, 8, 12, 3} {
		g := randPSD(rng, n)
		dirty(scratch)
		if got, want := mat.LargestEigSymScratch(g, scratch), mat.LargestEigSym(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: scratch form %v, allocating form %v", n, got, want)
		}
	}
	g := randPSD(rng, 8)
	if n := testing.AllocsPerRun(10, func() { mat.LargestEigSymScratch(g, scratch) }); n != 0 {
		t.Fatalf("LargestEigSymScratch allocates %v times per call", n)
	}
}

// dirty fills scratch with values a loop that read it would not survive.
func dirty(scratch []float64) {
	for i := range scratch {
		scratch[i] = []float64{math.NaN(), math.Inf(-1), -1}[i%3]
	}
}

// oraclePowerIteration is LargestEigSymScratch as it was when every
// iteration made two passes over g — one for the power step, one for the
// Rayleigh quotient — kept verbatim with the Gemv, rayleigh and Nrm2 it
// called as the bitwise reference for the one-pass loop.
func oraclePowerIteration(g *mat.Dense, scratch []float64) float64 {
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
	mat.Scal(1/oracleNrm2(v), v)
	lambda := 0.0
	for it := 0; it < maxIter; it++ {
		oracleGemv(1, g, v, 0, w)
		nrm := oracleNrm2(w)
		if nrm == 0 {
			return 0 // g is the zero matrix
		}
		mat.Scal(1/nrm, w)
		v, w = w, v
		next := oracleRayleigh(g, v, w)
		if math.Abs(next-lambda) <= tol*math.Max(1, math.Abs(next)) {
			return next
		}
		lambda = next
	}
	return lambda
}

// oracleRayleigh returns vᵀgv using scratch for the intermediate product.
func oracleRayleigh(g *mat.Dense, v, scratch []float64) float64 {
	oracleGemv(1, g, v, 0, scratch)
	return mat.Dot(v, scratch)
}

// oracleNrm2 is Nrm2 as the oracle loop called it, before its update
// became the helper the one-pass loop shares.
func oracleNrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// oracleGemv computes y = alpha*A*x + beta*y.
func oracleGemv(alpha float64, a *mat.Dense, x []float64, beta float64, y []float64) {
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = alpha*s + beta*y[i]
	}
}

// sameEig reports whether two eigenvalues have the same bits, every NaN
// counting as one value.
func sameEig(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkOracle holds both forms of LargestEigSym to the oracle on g, the
// scratch form with stale non-finite scratch: equal bits also means a
// repeated call is deterministic. For a finite result the last iterate
// and its product, left in scratch, must match too: the Rayleigh
// quotient is flat near an eigenvector, so a last-bit slip in the norm
// seldom moves λ, but it moves them.
func checkOracle(t *testing.T, name string, g *mat.Dense) {
	t.Helper()
	wantScratch := make([]float64, 2*g.R)
	want := oraclePowerIteration(g, wantScratch)
	scratch := make([]float64, 2*g.R)
	dirty(scratch)
	for _, got := range []float64{mat.LargestEigSym(g), mat.LargestEigSymScratch(g, scratch), mat.LargestEigSym(g)} {
		if !sameEig(got, want) {
			t.Fatalf("%s %dx%d %v: got %v (%#x), oracle %v (%#x)",
				name, g.R, g.C, g.Data, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if g.R < 2 || math.IsNaN(want) || math.IsInf(want, 0) {
		return
	}
	for i, w := range wantScratch {
		if !sameEig(scratch[i], w) {
			t.Fatalf("%s %dx%d %v: scratch[%d] = %v, oracle %v", name, g.R, g.C, g.Data, i, scratch[i], w)
		}
	}
}

// specialValues are the entries that take the loop off its finite path:
// overflow, NaN and Inf propagation, signed zero, and the subnormals
// Nrm2's rescaling guards.
var specialValues = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
}

// TestLargestEigSymMatchesOracle: the one-pass loop returns the old
// two-pass loop's bits on every class of input the solvers can build
// and on the inputs they cannot.
func TestLargestEigSymMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for n := 2; n <= 16; n++ {
		for trial := 0; trial < 40; trial++ {
			a := randMatrix(rnd, n+2, n)
			checkOracle(t, "psd", gramOf(a))

			// Rank-deficient: fewer rows than columns.
			checkOracle(t, "rank-deficient", gramOf(randMatrix(rnd, 1+rnd.Intn(n-1), n)))

			// Duplicated columns: equal rows and columns of the Gram.
			src, dst := rnd.Intn(n), rnd.Intn(n)
			for k := 0; k < a.R; k++ {
				a.Set(k, dst, a.At(k, src))
			}
			g := gramOf(a)
			checkOracle(t, "duplicated-column", g)

			// A zero row and column (an all-zero column of A), then a
			// zero row alone.
			z := rnd.Intn(n)
			for k := 0; k < n; k++ {
				g.Set(z, k, 0)
				g.Set(k, z, 0)
			}
			checkOracle(t, "zero-row-and-column", g)
			h := randPSD(rnd, n)
			clear(h.Row(rnd.Intn(n)))
			checkOracle(t, "zero-row", h)

			// Diagonal, some entries zero.
			d := mat.NewDense(n, n)
			for i := 0; i < n; i++ {
				if rnd.Intn(4) > 0 {
					d.Set(i, i, math.Abs(rnd.NormFloat64()))
				}
			}
			checkOracle(t, "diagonal", d)

			// Scaled far from 1: Nrm2's rescaling branch.
			for _, s := range []float64{1e150, 1e-150} {
				sc := randPSD(rnd, n)
				mat.Scal(s, sc.Data)
				checkOracle(t, fmt.Sprintf("scaled %g", s), sc)
			}

			// Special values in a symmetric and a non-symmetric matrix.
			sym, asym := randPSD(rnd, n), randMatrix(rnd, n, n)
			for k := 0; k < 1+rnd.Intn(3); k++ {
				i, j := rnd.Intn(n), rnd.Intn(n)
				v := specialValues[rnd.Intn(len(specialValues))]
				sym.Set(i, j, v)
				sym.Set(j, i, v)
				asym.Set(i, j, specialValues[rnd.Intn(len(specialValues))])
			}
			checkOracle(t, "special symmetric", sym)
			checkOracle(t, "special non-symmetric", asym)
		}
		checkOracle(t, "zero", mat.NewDense(n, n))
	}

	// The solvers' blocks: 8×8 column Grams of a sparse regression design
	// at the benchmark's density, mostly near-diagonal — the slowest
	// converging inputs, many of which run to maxIter.
	cols := datagen.Regression("eig", 26, 4096, 2048, 0.005, 100, 0.1).Cols()
	r := rng.New(26)
	g := mat.NewDense(8, 8)
	for b := 0; b < 256; b++ {
		cols.ColGram(r.SampleK(2048, 8), g)
		checkOracle(t, "colgram", g)
	}
}

// TestNrm2MatchesOracle: Nrm2 folded through its shared update helper
// keeps its bits, across magnitudes and on the special values.
func TestNrm2MatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20000; trial++ {
		x, base := make([]float64, rnd.Intn(17)), math.Pow(10, float64(rnd.Intn(601)-300))
		for i := range x {
			x[i] = rnd.NormFloat64() * base
			if rnd.Intn(8) == 0 {
				x[i] = specialValues[rnd.Intn(len(specialValues))]
			}
		}
		if got, want := mat.Nrm2(x), oracleNrm2(x); !sameEig(got, want) {
			t.Fatalf("Nrm2(%v) = %v, oracle %v", x, got, want)
		}
	}
}

// FuzzLargestEigSym: on any square matrix — the first byte picks n ≤ 16,
// each following 8 bytes one entry's bits, row-major, missing entries 0
// — the one-pass loop and the two-pass oracle return the same bits.
func FuzzLargestEigSym(f *testing.F) {
	seed := func(n byte, vals ...float64) []byte {
		b := []byte{n}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 2, 1, 1, 2))
	f.Add(seed(3, 4, 1, 0, 1, 3, 1, 0, 1, 2))
	f.Add(seed(3, 1, math.NaN(), 0, 0, 1e308, 1e308, math.Inf(-1), 0, 5e-324))
	f.Add(seed(4, 1e150, 0, 0, 0, 0, 1e-150, 0, 0, 0, 0, math.Copysign(0, -1)))
	f.Add(seed(8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 17
		g := mat.NewDense(n, n)
		for i, rest := 0, data[1:]; i < n*n && len(rest) >= 8; i, rest = i+1, rest[8:] {
			g.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		}
		checkOracle(t, "fuzz", g)
	})
}
