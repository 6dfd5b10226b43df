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
