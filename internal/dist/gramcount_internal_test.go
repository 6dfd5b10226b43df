package dist

import (
	"fmt"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mat"
)

// TestSingleRankReducesEveryGram is the distributed leg of core's
// TestFixedBlocksSkipTheEigensolve: a solve with a Reducer keeps the
// batch Gram, which the reduction carries, even at P = 1 and s = 1 where
// core's own solve builds a block's Gram only if the block moves. Every
// batch reduces one µ×µ Gram, H in all, also above λmax where no block
// moves.
func TestSingleRankReducesEveryGram(t *testing.T) {
	const mu, iters = 4, 96
	d := datagen.Regression("gramcount-dist", 29, 160, 48, 0.15, 6, 0.1)
	lambdaMax := core.LambdaMaxL1(d.AsCSR().ToCSC(), d.B)
	var grams int
	reducedGramHook = func(g *mat.Dense) {
		if g.R == mu && g.C == mu {
			grams++
		}
	}
	defer func() { reducedGramHook = nil }()
	for _, acc := range []bool{false, true} {
		for _, frac := range []float64{2, 0.1} {
			name := fmt.Sprintf("acc=%v λ=%g·λmax", acc, frac)
			grams = 0
			opt := core.LassoOptions{Lambda: frac * lambdaMax, BlockSize: mu, Iters: iters, S: 1, Accelerated: acc, Seed: 3}
			if _, err := Lasso(d.AsCSR(), d.B, opt, Options{P: 1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if grams != iters {
				t.Errorf("%s: %d reduced %d×%d Grams, want %d", name, grams, mu, mu, iters)
			}
		}
	}
}
