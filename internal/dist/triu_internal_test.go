package dist

import (
	"fmt"
	"math"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mat"
)

// TestDistReadsUpperTriangleOnly is the distributed leg of
// stream's TestSolversReadUpperTriangleOnly: with reducedGramHook writing
// a NaN of its own payload into every strict-lower entry of each
// reduced Gram, the simulated cluster at P ∈ {2, 3} (one and two kernel
// workers per rank) must give the same X, bit for bit, as without it —
// Lasso plain and accelerated at s ∈ {1, 16}, SVM-L1 and SVM-L2. The
// reduction carries only the upper triangle, so nothing a rank reads
// below the diagonal could hold a sum.
func TestDistReadsUpperTriangleOnly(t *testing.T) {
	poison := func(g *mat.Dense) {
		for i := 0; i < g.R; i++ {
			for j := 0; j < i; j++ {
				g.Data[i*g.C+j] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i*g.C+j))
			}
		}
	}
	poisoned := func(run func() ([]float64, error)) ([]float64, error) {
		reducedGramHook = poison
		defer func() { reducedGramHook = nil }()
		return run()
	}
	check := func(name string, run func() ([]float64, error)) {
		t.Helper()
		want, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := poisoned(run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: X[%d] = %v with the lower triangle poisoned, %v without", name, i, got[i], want[i])
			}
		}
	}

	reg := datagen.Regression("triu-dist-lasso", 21, 256, 64, 0.12, 8, 0.1)
	cls := datagen.Classification("triu-dist-svm", 23, 256, 48, 0.15, 0.05)
	for _, p := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			cl := Options{P: p, RankWorkers: workers}
			for _, accel := range []bool{false, true} {
				for _, s := range []int{1, 16} {
					opt := core.LassoOptions{Lambda: 0.4, Iters: 128, S: s, BlockSize: 4, Seed: 42, Accelerated: accel}
					check(fmt.Sprintf("P=%d workers=%d lasso accel=%t s=%d", p, workers, accel, s), func() ([]float64, error) {
						res, err := Lasso(reg.AsCSR(), reg.B, opt, cl)
						if err != nil {
							return nil, err
						}
						return res.X, nil
					})
				}
			}
			for _, loss := range []core.SVMLoss{core.SVML1, core.SVML2} {
				opt := core.SVMOptions{Lambda: 1, Loss: loss, Iters: 256, S: 16, Seed: 9}
				check(fmt.Sprintf("P=%d workers=%d %v", p, workers, loss), func() ([]float64, error) {
					res, err := SVM(cls.AsCSR(), cls.B, opt, cl)
					if err != nil {
						return nil, err
					}
					return res.X, nil
				})
			}
		}
	}
}
