// Text classification with dual coordinate-descent SVM on a news20-like
// sparse dataset, tracking the duality gap as the optimality certificate
// (the paper's Fig. 5 methodology), then timing classical vs
// synchronization-avoiding training on a simulated cluster (Table V).
package main

import (
	"fmt"
	"log"

	"saco"
)

func main() {
	data, err := saco.Replica("news20.binary", 0.25, 3)
	if err != nil {
		log.Fatal(err)
	}
	m, n := data.Dims()
	fmt.Printf("news20.binary replica: %d documents x %d terms, %.4g%% nonzero\n\n",
		m, n, 100*data.Density())

	// Sequential training with duality-gap tracking.
	opt := saco.SVMOptions{
		Lambda:     1,
		Loss:       saco.SVML1,
		Iters:      8 * m, // eight epochs
		Seed:       5,
		TrackEvery: 2 * m,
	}
	res, err := saco.SVM(data.Rows(), data.B, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("duality gap trajectory (SVM-L1):")
	for _, p := range res.History {
		fmt.Printf("  iter %8d  primal %.4e  dual %.4e  gap %.4e\n",
			p.Iter, p.Primal, p.Dual, p.Gap)
	}
	fmt.Printf("training accuracy: %.1f%%, support vectors: %d/%d\n\n",
		100*saco.Accuracy(data.Rows(), data.B, res.X), res.SupportVectors(), m)

	// Cluster comparison: classical vs SA at several s (Table V style).
	cluster := saco.Cluster{P: 24, Machine: saco.CrayXC30()}
	opt.TrackEvery = 0
	classic, err := saco.DistSVM(saco.MatrixSource(data.AsCSR()), data.B, opt, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated cluster (P=24): SVM-L1 modeled time %.4es\n", classic.ModeledSeconds())
	for _, s := range []int{16, 64, 128} {
		opt.S = s
		sa, err := saco.DistSVM(saco.MatrixSource(data.AsCSR()), data.B, opt, cluster)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  SA-SVM-L1 s=%-4d modeled time %.4es  (%.2fx)\n",
			s, sa.ModeledSeconds(), classic.ModeledSeconds()/sa.ModeledSeconds())
	}
}
