package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randPSD builds AᵀA for a random A, guaranteeing symmetric PSD input.
func randPSD(rng *rand.Rand, n int) *Dense {
	a := randDense(rng, n+2, n)
	g := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < a.R; k++ {
				g.Data[i*n+j] += a.At(k, i) * a.At(k, j)
			}
		}
	}
	return g
}

func TestLargestEigSymScalarAndEmpty(t *testing.T) {
	if got := LargestEigSym(NewDense(0, 0)); got != 0 {
		t.Fatalf("empty eig = %v", got)
	}
	g := NewDenseData(1, 1, []float64{4.5})
	if got := LargestEigSym(g); got != 4.5 {
		t.Fatalf("1x1 eig = %v", got)
	}
}

func TestLargestEigSymDiagonal(t *testing.T) {
	g := NewDense(3, 3)
	g.Set(0, 0, 1)
	g.Set(1, 1, 7)
	g.Set(2, 2, 3)
	if got := LargestEigSym(g); !almostEq(got, 7, 1e-10) {
		t.Fatalf("diag eig = %v, want 7", got)
	}
}

func TestLargestEigSymZeroMatrix(t *testing.T) {
	if got := LargestEigSym(NewDense(4, 4)); got != 0 {
		t.Fatalf("zero-matrix eig = %v", got)
	}
}

func TestLargestEigSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		g := randPSD(rng, n)
		power := LargestEigSym(g)
		eig := EigSymJacobi(g)
		jac := eig[len(eig)-1]
		if !almostEq(power, jac, 1e-6) {
			t.Fatalf("trial %d: power=%v jacobi=%v", trial, power, jac)
		}
	}
}

func TestEigSymJacobiKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	g := NewDenseData(2, 2, []float64{2, 1, 1, 2})
	eig := EigSymJacobi(g)
	if !almostEq(eig[0], 1, 1e-12) || !almostEq(eig[1], 3, 1e-12) {
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
		for _, ev := range EigSymJacobi(g) {
			sum += ev
		}
		return almostEq(tr, sum, 1e-8)
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
		lmax := LargestEigSym(g)
		for probe := 0; probe < 5; probe++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			nv := Nrm2Sq(v)
			if nv == 0 {
				continue
			}
			w := make([]float64, n)
			Gemv(1, g, v, 0, w)
			if Dot(v, w)/nv > lmax*(1+1e-6)+1e-9 {
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
		for i := range scratch {
			scratch[i] = []float64{math.NaN(), math.Inf(-1), -1}[i%3]
		}
		if got, want := LargestEigSymScratch(g, scratch), LargestEigSym(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: scratch form %v, allocating form %v", n, got, want)
		}
	}
	g := randPSD(rng, 8)
	if n := testing.AllocsPerRun(10, func() { LargestEigSymScratch(g, scratch) }); n != 0 {
		t.Fatalf("LargestEigSymScratch allocates %v times per call", n)
	}
}

func TestLargestEigDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randPSD(rng, 12)
	a := LargestEigSym(g)
	b := LargestEigSym(g)
	if a != b {
		t.Fatalf("LargestEigSym not deterministic: %v != %v", a, b)
	}
}
