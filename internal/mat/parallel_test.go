package mat

import (
	"math/rand"
	"testing"
)

func TestGemvParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 1200, 37)
	x := make([]float64, 37)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 1200)
	GemvParallel(1.3, a, x, 0, y)
	for i := range y {
		var s float64
		for j, v := range a.Row(i) {
			s += v * x[j]
		}
		if want := 1.3 * s; y[i] != want {
			t.Fatalf("row %d: parallel %v != sequential %v", i, y[i], want)
		}
	}
}
