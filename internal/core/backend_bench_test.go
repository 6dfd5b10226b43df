package core

import (
	"fmt"
	"runtime"
	"testing"

	"saco/internal/datagen"
)

// solveBenchWorkers is the ladder of the end-to-end solve benchmarks:
// sequential, the 4-worker acceptance point, the whole machine.
func solveBenchWorkers() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	out := ws[:1]
	for _, w := range ws[1:] {
		if w > out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkSolveLassoSA runs the SA-accBCD solver end to end per worker
// count. Large blocks (µ=16, s=32) make the batched sµ×sµ Gram the
// dominant cost, which is exactly the kernel the multicore backend fans
// out.
func BenchmarkSolveLassoSA(b *testing.B) {
	m, n, iters := 3000, 1200, 256
	if testing.Short() {
		m, n, iters = 800, 300, 64
	}
	data := datagen.Regression("bench", 17, m, n, 0.05, 20, 0.05)
	a := data.AsCSR().ToCSC()
	lambda := 0.1 * LambdaMaxL1(a, data.B)
	for _, w := range solveBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Lasso(a, data.B, LassoOptions{
					Lambda: lambda, BlockSize: 16, Iters: iters, S: 32,
					Accelerated: true, Seed: 2,
					Exec: Exec{Backend: BackendMulticore, Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalBackends exercises all three local backends end to end
// on one short Lasso solve, and the two that run it on one short SVM
// solve. CI runs it at one iteration as the fork-join smoke gate: a
// regression in the work rule, the multicore kernels or the async
// solver fails here before it can hide behind the figure harness.
func BenchmarkLocalBackends(b *testing.B) {
	m, n := 2000, 600
	if testing.Short() {
		m, n = 600, 200
	}
	reg := datagen.Regression("bench-backends", 31, m, n, 0.05, 15, 0.05)
	cls := datagen.Classification("bench-backends", 37, m, n, 0.05, 0.05)
	cols := reg.AsCSR().ToCSC()
	rows := cls.AsCSR()
	lambda := 0.1 * LambdaMaxL1(cols, reg.B)
	backends := []Exec{
		{Backend: BackendSequential},
		{Backend: BackendMulticore, Workers: 4},
		{Backend: BackendAsync, Workers: 4},
	}
	for _, e := range backends {
		b.Run("lasso/"+e.Backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Lasso(cols, reg.B, LassoOptions{
					Lambda: lambda, BlockSize: 8, Iters: 512, Seed: 2, Exec: e,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if e.Backend == BackendAsync {
			continue // async runs only the plain Lasso
		}
		b.Run("svm/"+e.Backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SVM(rows, cls.B, SVMOptions{
					Lambda: 1, Iters: 2048, Seed: 2, Exec: e,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSVMSA runs SA dual coordinate descent end to end per
// worker count; the s×s row Gram dominates at s=128.
func BenchmarkSolveSVMSA(b *testing.B) {
	m, n, iters := 4000, 800, 1024
	if testing.Short() {
		m, n, iters = 1000, 200, 256
	}
	data := datagen.Classification("bench", 19, m, n, 0.05, 0.05)
	a := data.AsCSR()
	for _, w := range solveBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := SVM(a, data.B, SVMOptions{
					Lambda: 1, Iters: iters, S: 128, Seed: 2,
					Exec: Exec{Backend: BackendMulticore, Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
