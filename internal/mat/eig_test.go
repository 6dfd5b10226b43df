package mat_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	g := &mat.Dense{R: 1, C: 1, Data: []float64{4.5}}
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
		got := mat.LargestEigSym(g)
		eig := mat.EigSymJacobi(g)
		jac := eig[len(eig)-1]
		if !near(got, jac, 1e-13) {
			t.Fatalf("trial %d: got %v, jacobi %v", trial, got, jac)
		}
	}
}

func TestEigSymJacobiKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	g := &mat.Dense{R: 2, C: 2, Data: []float64{2, 1, 1, 2}}
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

// Property: the largest eigenvalue dominates the Rayleigh quotient of
// random probe vectors (λmax = sup_v vᵀGv/vᵀv) to rounding: an
// underestimate, which would make 1/λ an unsafe step, fails here.
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
			nv := mat.Nrm2Sq(0, v)
			if nv == 0 {
				continue
			}
			w := make([]float64, n)
			for i := range w {
				w[i] = mat.Dot(g.Row(i), v)
			}
			if mat.Dot(v, w)/nv > lmax*(1+1e-13) {
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
	scratch := make([]float64, 12*12+3*12)
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

// TestLargestEigSymScratchTooShort: a short scratch is refused with the
// length it needed, not read out of bounds part way through.
func TestLargestEigSymScratchTooShort(t *testing.T) {
	g := randPSD(rand.New(rand.NewSource(5)), 8)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "needs 88 scratch words") {
			t.Fatalf("panic %q does not name the 88 words an 8x8 matrix needs", msg)
		}
	}()
	mat.LargestEigSymScratch(g, make([]float64, 87))
}

// dirty fills scratch with values a loop that read it would not survive.
func dirty(scratch []float64) {
	for i := range scratch {
		scratch[i] = []float64{math.NaN(), math.Inf(-1), -1}[i%3]
	}
}

// oracleNrm2 is Nrm2 as it was before its update became a shared
// helper.
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

// sameEig reports whether two eigenvalues have the same bits, every NaN
// counting as one value.
func sameEig(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// eigForms returns LargestEigSym(g) after holding the scratch form, with
// stale non-finite scratch, and a repeated call to the same bits, and g
// to its bits before the calls.
func eigForms(t *testing.T, name string, g *mat.Dense) float64 {
	t.Helper()
	orig := g.Clone()
	want := mat.LargestEigSym(g)
	scratch := make([]float64, g.R*g.R+3*g.R)
	dirty(scratch)
	for _, got := range []float64{mat.LargestEigSymScratch(g, scratch), mat.LargestEigSym(g)} {
		if !sameEig(got, want) {
			t.Fatalf("%s %dx%d %v: got %v (%#x), then %v (%#x)",
				name, g.R, g.C, g.Data, want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
	for i, x := range orig.Data {
		if !sameEig(g.Data[i], x) {
			t.Fatalf("%s: LargestEigSym wrote g[%d]: %v → %v", name, i, x, g.Data[i])
		}
	}
	return want
}

// jacobiMax is the oracle: the largest of EigSymJacobi's eigenvalues.
func jacobiMax(g *mat.Dense) float64 {
	if g.R == 0 {
		return 0
	}
	eig := mat.EigSymJacobi(g)
	return eig[len(eig)-1]
}

// checkOracle holds LargestEigSym on the symmetric positive-semidefinite
// g within 1e-13 of Jacobi's largest eigenvalue, relative to it.
func checkOracle(t *testing.T, name string, g *mat.Dense) {
	t.Helper()
	got, want := eigForms(t, name, g), jacobiMax(g)
	if !(math.Abs(got-want) <= 1e-13*math.Abs(want)) {
		t.Fatalf("%s %dx%d %v: got %v, Jacobi %v (relative error %.3g)",
			name, g.R, g.C, g.Data, got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// checkDifferential holds LargestEigSym on any symmetric g to the
// contract the fuzz target checks: NaN when an entry is NaN or ±Inf,
// otherwise within 1e-13·max(1, ‖g‖_F) of Jacobi's largest eigenvalue.
// An overflowing ‖g‖_F admits any non-NaN result: Jacobi's own stopping
// test gives up there.
func checkDifferential(t *testing.T, name string, g *mat.Dense) {
	t.Helper()
	got := eigForms(t, name, g)
	if slices.ContainsFunc(g.Data, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
		if !math.IsNaN(got) {
			t.Fatalf("%s %dx%d %v: got %v, want NaN for a non-finite entry", name, g.R, g.C, g.Data, got)
		}
		return
	}
	var ssq float64
	for _, x := range g.Data {
		ssq += x * x
	}
	want := jacobiMax(g)
	if !(math.Abs(got-want) <= 1e-13*math.Max(1, math.Sqrt(ssq))) {
		t.Fatalf("%s %dx%d %v: got %v, Jacobi %v", name, g.R, g.C, g.Data, got, want)
	}
}

// TestLargestEigSymSpecialValues is the contract off the finite,
// well-scaled path, in one table: exact results where the answer is
// representable, +Inf where the eigenvalue overflows, NaN for a NaN or
// ±Inf entry. Random symmetric matrices with the same special values
// planted follow.
func TestLargestEigSymSpecialValues(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		data []float64
		want float64
	}{
		{"diag(1, 2)", []float64{1, 0, 0, 2}, 2},
		{"[2 1; 1 2]", []float64{2, 1, 1, 2}, 3},
		{"all 1e308", []float64{1e308, 1e308, 1e308, 1e308}, inf},
		{"diag(5e-324, 5e-324)", []float64{5e-324, 0, 0, 5e-324}, 5e-324},
		{"[-1 0; 0 -2]", []float64{-1, 0, 0, -2}, -1},
		// After scaling, column 0's tail has a subnormal squared norm,
		// which must not reach a reflection (a fuzz find).
		{"subnormal column norm", []float64{
			1.398043286095289e-76, 1.398043286095289e-76, 6.004550192171637e-67,
			1.398043286095289e-76, 5.276162829997652e+92, 0,
			6.004550192171637e-67, 0, 0,
		}, 5.276162829997652e+92},
		{"NaN off the diagonal", []float64{1, nan, nan, 1}, nan},
		{"NaN on the diagonal", []float64{nan, 0, 0, 1}, nan},
		{"+Inf entry", []float64{inf, 0, 0, 1}, nan},
		{"-Inf entries", []float64{1, -inf, -inf, 1}, nan},
		{"1x1 +Inf", []float64{inf}, nan},
		{"1x1 subnormal", []float64{5e-324}, 5e-324},
		{"zero", []float64{0, 0, 0, 0}, 0},
		{"-0", []float64{negZero, negZero, negZero, negZero}, 0},
	} {
		n := int(math.Sqrt(float64(len(tc.data))))
		if got := eigForms(t, tc.name, &mat.Dense{R: n, C: n, Data: tc.data}); !sameEig(got, tc.want) {
			t.Errorf("%s: got %v (%#x), want %v (%#x)", tc.name, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
	}

	rnd := rand.New(rand.NewSource(31))
	for n := 2; n <= 16; n++ {
		for trial := 0; trial < 40; trial++ {
			g := randPSD(rnd, n)
			for k := 0; k < 1+rnd.Intn(3); k++ {
				i, j := rnd.Intn(n), rnd.Intn(n)
				v := specialValues[rnd.Intn(len(specialValues))]
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
			checkDifferential(t, "special", g)
		}
	}
}

// specialValues are the entries that take the method off its finite
// path: overflow, NaN and Inf, signed zero, and subnormals.
var specialValues = []float64{
	math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
}

// TestLargestEigSymMatchesOracle: LargestEigSym agrees with Jacobi to
// 1e-13 relative on every class of symmetric positive-semidefinite input
// the solvers can build.
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

			// A zero row and column (an all-zero column of A).
			z := rnd.Intn(n)
			for k := 0; k < n; k++ {
				g.Set(z, k, 0)
				g.Set(k, z, 0)
			}
			checkOracle(t, "zero-row-and-column", g)

			// Diagonal, some entries zero.
			d := mat.NewDense(n, n)
			for i := 0; i < n; i++ {
				if rnd.Intn(4) > 0 {
					d.Set(i, i, math.Abs(rnd.NormFloat64()))
				}
			}
			checkOracle(t, "diagonal", d)

			// Scaled far from 1.
			for _, s := range []float64{1e150, 1e-150} {
				sc := randPSD(rnd, n)
				mat.Scal(s, sc.Data)
				checkOracle(t, fmt.Sprintf("scaled %g", s), sc)
			}
		}
		checkOracle(t, "zero", mat.NewDense(n, n))
	}

	// The solvers' blocks: 8×8 column Grams of a sparse regression design
	// at the benchmark's density, mostly near-diagonal — the inputs power
	// iteration got wrong by up to 3.3e-3 relative. ColGram stores the
	// upper triangle, which is what LargestEigSym gets; Jacobi gets the
	// full symmetric matrix it stands for.
	cols := datagen.Regression("eig", 26, 4096, 2048, 0.005, 100, 0.1).Cols()
	r := rng.New(26)
	g := mat.NewDense(8, 8)
	for b := 0; b < 256; b++ {
		cols.ColGram(r.SampleK(2048, 8), g)
		got, want := eigForms(t, "colgram", g), jacobiMax(mirrored(g))
		if !(math.Abs(got-want) <= 1e-13*math.Abs(want)) {
			t.Fatalf("colgram %v: got %v, Jacobi %v (relative error %.3g)", g.Data, got, want, math.Abs(got-want)/math.Abs(want))
		}
	}
}

// mirrored returns the symmetric matrix whose upper triangle g holds.
func mirrored(g *mat.Dense) *mat.Dense {
	s := g.Clone()
	for i := 0; i < s.R; i++ {
		for j := 0; j < i; j++ {
			s.Set(i, j, s.At(j, i))
		}
	}
	return s
}

// poisonLower returns a copy of g with every strict-lower entry a NaN
// of its own payload, so a read of any of them shows in the result.
func poisonLower(g *mat.Dense) *mat.Dense {
	p := g.Clone()
	for i := 0; i < p.R; i++ {
		for j := 0; j < i; j++ {
			p.Set(i, j, math.Float64frombits(0x7ff8_0000_0000_0001+uint64(i*p.C+j)))
		}
	}
	return p
}

// TestLargestEigSymReadsUpperTriangleOnly: the eigenvalue of a symmetric
// G has the bits of the eigenvalue of triu(G) with a NaN below the
// diagonal, on the benchmark's 256 blocks at µ ∈ {4, 8, 16} and on
// 20 000 random symmetric matrices of order 0…16 with special values
// planted — so the solvers, which hold only the upper triangle, step
// exactly as they did when the Gram was mirrored.
func TestLargestEigSymReadsUpperTriangleOnly(t *testing.T) {
	check := func(name string, full *mat.Dense) {
		t.Helper()
		want := mat.LargestEigSym(full)
		poisoned := poisonLower(full)
		scratch := make([]float64, full.R*full.R+3*full.R)
		dirty(scratch)
		for _, got := range []float64{mat.LargestEigSym(poisoned), mat.LargestEigSymScratch(poisoned, scratch)} {
			if !sameEig(got, want) {
				t.Fatalf("%s %dx%d %v: poisoned lower triangle gives %v (%#x), full matrix %v (%#x)",
					name, full.R, full.C, full.Data, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, mu := range []int{4, 8, 16} {
		for _, g := range benchGrams(mu) {
			check(fmt.Sprintf("bench µ=%d", mu), mirrored(g))
		}
	}
	rnd := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20000; trial++ {
		n := trial % 17
		g := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rnd.NormFloat64()
				if rnd.Intn(16) == 0 {
					v = specialValues[rnd.Intn(len(specialValues))]
				}
				g.Set(i, j, v)
			}
		}
		check("random", mirrored(g))
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

// FuzzLargestEigSym is the differential fuzz against Jacobi: on any
// symmetric matrix — the first byte picks n ≤ 16, each following 8 bytes
// one entry's bits of the upper triangle, row-major, mirrored below it,
// missing entries 0 — LargestEigSym meets checkDifferential's contract,
// and on its scaled tridiagonal the fenced bisection returns the bits of
// one that counts every midpoint.
func FuzzLargestEigSym(f *testing.F) {
	seed := func(n byte, vals ...float64) []byte {
		b := []byte{n}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2, 2, 1, 2))
	f.Add(seed(3, 4, 1, 0, 3, 1, 2))
	f.Add(seed(3, 1, math.NaN(), 0, 1e308, 1e308, 5e-324))
	f.Add(seed(4, 1e150, 0, 0, 0, 1e-150, 0, 0, math.Copysign(0, -1)))
	f.Add(seed(2, 5e-324, 0, 5e-324))
	f.Add(seed(8))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 17
		g := mat.NewDense(n, n)
		rest := data[1:]
		for i := 0; i < n; i++ {
			for j := i; j < n && len(rest) >= 8; j++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
				g.Set(i, j, v)
				g.Set(j, i, v)
				rest = rest[8:]
			}
		}
		checkDifferential(t, "fuzz", g)
		checkBisection(t, "fuzz", g)
	})
}
