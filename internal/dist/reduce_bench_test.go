package dist

import (
	"context"
	"fmt"
	"testing"

	"saco/internal/mat"
	"saco/internal/mpi"
	"saco/internal/rng"
)

// BenchmarkGramReduce times the reduction of one batch on its own —
// packGram, a P = 2 Allreduce over loopback TCP, unpackGram — with the
// accelerated Lasso's two hoisted products, at the frames of both
// dist-lasso workloads: k = 8 (µ = 8, s = 1) packs 52 words, a
// latency-bound frame, and k = 128 (µ = 8, s = 16) packs 8 512. The
// end-to-end benchmark sees this layer only inside a whole solve. One op
// is one reduction on rank 0; rank 1 runs the same loop.
func BenchmarkGramReduce(b *testing.B) {
	for _, k := range []int{8, 128} {
		words := k*(k+1)/2 + 2*k
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) { benchGramReduce(b, k) })
	}
}

func benchGramReduce(b *testing.B, k int) {
	_, err := mpi.RunWorld(context.Background(), 2, mpi.Machine{}, mpi.WorldOptions{TCP: &mpi.TCPOptions{}}, func(c *mpi.Comm) error {
		r := rng.New(uint64(1 + c.Rank()))
		gram := mat.NewDense(k, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				gram.Set(i, j, r.NormFloat64())
			}
		}
		prods := [][]float64{make([]float64, k), make([]float64, k)}
		for _, p := range prods {
			for i := range p {
				p[i] = r.NormFloat64()
			}
		}
		buf := make([]float64, (k+len(prods))*k)
		reduce := func() error {
			words := packGram(gram, prods, buf)
			if err := c.Allreduce(mpi.Sum, buf[:words]); err != nil {
				return err
			}
			unpackGram(buf[:words], gram, prods)
			return nil
		}
		for i := 0; i < 20; i++ { // warm both ranks' frame buffers
			if err := reduce(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := reduce(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
