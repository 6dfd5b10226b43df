package mat

import (
	"math/rand"
	"runtime"
	"testing"
)

func TestGemvParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 1200, 37)
	x := make([]float64, 37)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 1200)
	y2 := make([]float64, 1200)
	Gemv(1.3, a, x, 0, y1)
	GemvParallel(1.3, a, x, 0, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("row %d: parallel %v != sequential %v", i, y2[i], y1[i])
		}
	}
}

func TestCholeskyWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// Build SPD A = MᵀM + n·I, large enough to cross the parallel
	// threshold of the panel update.
	n := 300
	m := randDense(rng, n, n)
	a := NewDense(n, n)
	GemmTN(1, m, m, 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	// The panel update runs at GOMAXPROCS width.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l1, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	l8, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.Equal(l8) {
		t.Fatalf("Cholesky factor depends on worker count (max diff %v)", MaxAbsDiff(l1, l8))
	}
}
