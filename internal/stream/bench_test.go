package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/libsvm"
)

// benchDataset builds a small out-of-core fixture once per benchmark.
func benchDataset(b *testing.B, m, n, blockRows int) (*Dataset, []float64) {
	b.Helper()
	d := datagen.Regression("bench", 13, m, n, 0.05, 10, 0.1)
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, d.AsCSR(), d.B); err != nil {
		b.Fatal(err)
	}
	ds, err := Build(&buf, b.TempDir(), BuildOptions{BlockRows: blockRows, Features: n})
	if err != nil {
		b.Fatal(err)
	}
	return ds, d.B
}

// BenchmarkBlockPass measures one prefetched sequential epoch over the
// shards — the raw streaming substrate cost.
func BenchmarkBlockPass(b *testing.B) {
	ds, _ := benchDataset(b, 2048, 256, 256)
	it := ds.Blocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Reset()
		nnz := int64(0)
		for it.Next() {
			nnz += int64(it.Block().A.NNZ())
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if nnz != ds.nnz {
			b.Fatalf("pass saw %d nonzeros, want %d", nnz, ds.nnz)
		}
	}
}

// BenchmarkStreamSolve is the measured reason the store has two layouts
// and the task picks between them: each solver over each layout, on a
// uniform fixture ("uniform": 16 384 × 2048, density 1 %) and a url-like
// one ("urllike": skewed indices, ±1 values, 60 nonzeros a row), both in
// 16 shards of 1024 rows against the 2-shard cache. Lasso is the
// accelerated s-step solve over Cols() (µ 8, s 16, 256 iterations), the
// SVM the s-step dual solve over Rows() (s 64, 2048 iterations). Each
// store is built once, outside the timer; run it with
//
//	go test -run=NONE -bench=StreamSolve -benchtime=3x -cpu 1 ./internal/stream/
func BenchmarkStreamSolve(b *testing.B) {
	uniform := datagen.Classification("stream-bench", 17, 16384, 2048, 0.01, 0.05)
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, uniform.AsCSR(), uniform.B); err != nil {
		b.Fatal(err)
	}
	for _, fx := range []struct{ name, text string }{
		{"uniform", buf.String()},
		{"urllike", urlLikeText(16384, 60)},
	} {
		a, labels, err := libsvm.Read(strings.NewReader(fx.text), 0)
		if err != nil {
			b.Fatal(err)
		}
		lam := 0.1 * core.LambdaMaxL1(a.ToCSC(), labels)
		for _, task := range []struct {
			name  string
			solve func(ds *Dataset) error
		}{
			{"lasso", func(ds *Dataset) error {
				_, err := core.Lasso(ds.Cols(), labels, core.LassoOptions{
					Lambda: lam, Iters: 256, S: 16, BlockSize: 8, Accelerated: true, Seed: 1,
				})
				return err
			}},
			{"svm", func(ds *Dataset) error {
				_, err := core.SVM(ds.Rows(), labels, core.SVMOptions{Lambda: 1, Iters: 2048, S: 64, Seed: 1})
				return err
			}},
		} {
			for _, layout := range layouts {
				b.Run(fmt.Sprintf("%s/%s/%v", fx.name, task.name, layout), func(b *testing.B) {
					ds, err := Build(strings.NewReader(fx.text), b.TempDir(), BuildOptions{BlockRows: 1024, Layout: layout})
					if err != nil {
						b.Fatal(err)
					}
					defer ds.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := task.solve(ds); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
