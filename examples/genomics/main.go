// Genomics-style feature selection: the paper's leu dataset (leukemia
// gene expression: 38 patients, 7129 genes) is the canonical m << n
// problem where Lasso's sparsity matters. This example fits a
// warm-started regularization path with accBCD, compares L1 against elastic net, and
// verifies that the SA variant selects the identical gene set at every
// λ — the property that makes SA safe for scientific workloads.
package main

import (
	"fmt"
	"log"

	"saco"
)

func main() {
	data, err := saco.Replica("leu", 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	m, n := data.Dims()
	fmt.Printf("leu replica: %d samples x %d genes (dense)\n\n", m, n)

	cols := data.Cols()
	lambdaMax := saco.LambdaMax(cols, data.B)

	fmt.Println("Lasso regularization path (accBCD, µ=8, 1500 iterations):")
	fmt.Printf("%10s  %14s  %8s  %s\n", "lambda/max", "objective", "genes", "SA support identical?")
	fracs := []float64{0.5, 0.2, 0.1, 0.05, 0.02}
	lambdas := make([]float64, len(fracs))
	for i, frac := range fracs {
		lambdas[i] = frac * lambdaMax
	}
	opt := saco.LassoOptions{BlockSize: 8, Iters: 1500, Accelerated: true, Seed: 11}
	classic, err := saco.LassoPath(cols, data.B, lambdas, opt)
	if err != nil {
		log.Fatal(err)
	}
	opt.S = 128
	sa, err := saco.LassoPath(cols, data.B, lambdas, opt)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range classic {
		fmt.Printf("%10.2f  %14.6e  %8d  %v\n",
			fracs[i], p.Objective, p.NNZ, sameSupport(p.X, sa[i].X))
	}

	// Elastic net keeps correlated genes together instead of picking one
	// arbitrarily — the grouping effect.
	fmt.Println("\nElastic net (α=0.7) at lambda/max = 0.1:")
	enOpt := saco.LassoOptions{
		Reg:         saco.ElasticNet{Lambda: 0.1 * lambdaMax, Alpha: 0.7},
		BlockSize:   8,
		Iters:       1500,
		Accelerated: true,
		Seed:        11,
	}
	en, err := saco.Lasso(cols, data.B, enOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  objective %.6e, %d genes selected (L1 at same λ: see path above)\n",
		en.Objective, en.NNZ())
}

func sameSupport(a, b []float64) bool {
	for i := range a {
		if (a[i] != 0) != (b[i] != 0) {
			return false
		}
	}
	return true
}
