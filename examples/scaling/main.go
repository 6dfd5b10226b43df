// Scaling study: measure the synchronization-avoiding speedup on the
// simulated cluster across rank counts and s values (the paper's Fig. 4
// methodology), then extrapolate to the paper's 12,288-core scale with
// the Table I cost model.
package main

import (
	"fmt"
	"log"

	"saco"
	"saco/internal/costmodel"
)

func main() {
	data, err := saco.Replica("url", 0.25, 9)
	if err != nil {
		log.Fatal(err)
	}
	m, n := data.Dims()
	fmt.Printf("url replica: %d points x %d features, %.4g%% nonzero\n\n",
		m, n, 100*data.Density())

	a := data.AsCSR()
	lambda := 0.1 * saco.LambdaMax(a.ToCSC(), data.B)
	opt := saco.LassoOptions{Lambda: lambda, Iters: 800, Accelerated: true, Seed: 13}

	fmt.Println("measured on the simulated Cray XC30 (accCD vs SA-accCD):")
	fmt.Printf("%6s  %14s  %14s  %8s  %8s\n", "P", "accCD", "SA-accCD", "best s", "speedup")
	for _, p := range []int{8, 16, 32, 64} {
		cluster := saco.Cluster{P: p, Machine: saco.CrayXC30()}
		opt.S = 1
		classic, err := saco.DistLasso(saco.MatrixSource(a), data.B, opt, cluster)
		if err != nil {
			log.Fatal(err)
		}
		bestT, bestS := -1.0, 1
		for _, s := range []int{8, 32, 128, 512} {
			opt.S = s
			sa, err := saco.DistLasso(saco.MatrixSource(a), data.B, opt, cluster)
			if err != nil {
				log.Fatal(err)
			}
			if t := sa.ModeledSeconds(); bestT < 0 || t < bestT {
				bestT, bestS = t, s
			}
		}
		fmt.Printf("%6d  %13.4es  %13.4es  %8d  %7.2fx\n",
			p, classic.ModeledSeconds(), bestT, bestS, classic.ModeledSeconds()/bestT)
	}

	// Cost-model extrapolation to the paper's scale: same formulas
	// (Table I), the full url dimensions, P up to 12288.
	fmt.Println("\nTable I model extrapolated to the full url dataset:")
	fmt.Printf("%6s  %10s  %14s  %14s  %8s\n", "P", "best s", "accCD (model)", "SA-accCD", "speedup")
	pb := costmodel.Problem{
		M: 2396130, N: 3231961, Density: 0.000036,
		Mu: 1, H: 100000, S: 1, P: 3072,
	}
	mc := saco.CrayXC30()
	for _, p := range []int{3072, 6144, 12288} {
		cur := pb.WithP(p)
		sStar := costmodel.OptimalS(cur, mc, 2048)
		t1 := cur.Time(mc)
		tS := cur.WithS(sStar).Time(mc)
		fmt.Printf("%6d  %10d  %13.4es  %13.4es  %7.2fx\n", p, sStar, t1, tS, t1/tS)
	}
	fmt.Println("\n(The paper reports 2.8x for SA-accCD on url at P=12288; the model's")
	fmt.Println("crossover structure — speedup growing with P — is the claim under test.)")
}
