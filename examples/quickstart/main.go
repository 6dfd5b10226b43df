// Quickstart: fit a Lasso model on synthetic data, then show that the
// synchronization-avoiding variant reproduces it while synchronizing 64x
// less often on a simulated cluster.
package main

import (
	"fmt"
	"log"

	"saco"
)

func main() {
	// 1000 data points, 500 features, 5% dense, a 10-sparse true model.
	data := saco.Regression("quickstart", 1, 1000, 500, 0.05, 10, 0.1)
	lambda := 0.1 * saco.LambdaMax(data.Cols(), data.B)

	opt := saco.LassoOptions{
		Lambda:      lambda,
		BlockSize:   8, // accBCD: update 8 coordinates per iteration
		Iters:       2000,
		Accelerated: true,
		Seed:        42,
	}
	classic, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accBCD:            objective %.6e, %d/%d features selected\n",
		classic.Objective, classic.NNZ(), len(classic.X))

	// The SA variant: same math, one communication round per 64 steps.
	opt.S = 64
	sa, err := saco.Lasso(data.Cols(), data.B, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SA-accBCD (s=64):  objective %.6e  (relative difference %.2e)\n",
		sa.Objective, rel(classic.Objective, sa.Objective))

	// On a simulated 16-rank Cray XC30, count the synchronizations. For
	// block methods the message grows as s²µ², so the best s is moderate
	// (the paper's Fig. 3 uses s = 8–32 for BCD); s = 16 here.
	cluster := saco.Cluster{P: 16, Machine: saco.CrayXC30()}
	opt.S = 1
	dClassic, err := saco.DistLasso(saco.MatrixSource(data.AsCSR()), data.B, opt, cluster)
	if err != nil {
		log.Fatal(err)
	}
	opt.S = 16
	dSA, err := saco.DistLasso(saco.MatrixSource(data.AsCSR()), data.B, opt, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated cluster (P=16, Cray XC30 model):\n")
	fmt.Printf("  accBCD:    %6d messages, modeled time %.3es\n",
		dClassic.Stats.TotalMsgs(), dClassic.ModeledSeconds())
	fmt.Printf("  SA-accBCD: %6d messages, modeled time %.3es  (%.1fx speedup)\n",
		dSA.Stats.TotalMsgs(), dSA.ModeledSeconds(),
		dClassic.ModeledSeconds()/dSA.ModeledSeconds())
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if a < 0 {
		a = -a
	}
	if a == 0 {
		return d
	}
	return d / a
}
