package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"saco/internal/mat"
)

// benchWorkers is the worker ladder every kernel benchmark climbs:
// sequential, the 4-worker point of the acceptance criterion, and the
// whole machine (deduplicated on small hosts).
func benchWorkers() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	out := ws[:1]
	for _, w := range ws[1:] {
		if w > out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}

// benchDims picks the kernel problem size: CI smoke runs stay small
// under -short, local runs measure at paper-figure scale.
func benchDims(b *testing.B) (m, n, k int, density float64) {
	if testing.Short() {
		return 2000, 800, 64, 0.05
	}
	return 20000, 4000, 256, 0.02
}

// benchCSC builds an m×n CSC with about perCol entries per column at
// jittered strides, in time proportional to the entries (randCSR draws
// every cell, which a multi-million-row matrix cannot afford).
func benchCSC(rng *rand.Rand, m, n, perCol int) *CSC {
	colPtr := make([]int, 1, n+1)
	var rowIdx []int
	var val []float64
	gap := m / perCol
	for j := 0; j < n; j++ {
		for r := rng.Intn(gap); r < m; r += 1 + rng.Intn(2*gap-1) {
			rowIdx = append(rowIdx, r)
			val = append(val, rng.NormFloat64())
		}
		colPtr = append(colPtr, len(val))
	}
	return &CSC{M: m, N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// gramSizes are the sequential Gram shapes a workspace-layout change
// answers to: the repo benchmark's own problem (16384 indices, 82 per
// operand) at the s=1 block (k=8) and the s=16 batch (k=128), and the
// same batch over 4 M indices, where the workspace is far out of cache.
var gramSizes = []struct {
	name        string
	dim, k, nnz int
}{
	{"k=8", 16384, 8, 82},
	{"k=128", 16384, 128, 82},
	{"k=128/rows=4M", 4 << 20, 128, 82},
}

// BenchmarkGram measures the batched sµ×sµ Gram assembly G = YᵀY of the
// SA Lasso outer iteration (Alg. 2 line 11) at one worker versus all
// cores — the kernel the paper's batched-communication trade lives on —
// and sequentially at gramSizes.
func BenchmarkGram(b *testing.B) {
	m, n, k, density := benchDims(b)
	rng := rand.New(rand.NewSource(41))
	csc := randCSR(rng, m, n, density).ToCSC()
	cols := rng.Perm(n)[:k]
	dst := mat.NewDense(k, k)
	for _, w := range benchWorkers() {
		pm := csc.WithKernelWorkers(w).(*CSC)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pm.ColGram(cols, dst)
			}
		})
	}
	for _, sz := range gramSizes {
		if testing.Short() && sz.dim > 1<<20 {
			continue
		}
		b.Run(sz.name, func(b *testing.B) {
			csc := benchCSC(rng, sz.dim, 2*sz.k, sz.nnz)
			cols, dst := rng.Perm(csc.N)[:sz.k], mat.NewDense(sz.k, sz.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				csc.ColGram(cols, dst)
			}
		})
	}
}

// BenchmarkSpMV measures the row-partitioned CSR y = A·x kernel.
func BenchmarkSpMV(b *testing.B) {
	m, n, _, density := benchDims(b)
	rng := rand.New(rand.NewSource(42))
	csr := randCSR(rng, m, n, density)
	x := randVec(rng, n)
	y := make([]float64, m)
	for _, w := range benchWorkers() {
		pm := csr.WithKernelWorkers(w).(*CSR)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pm.MulVec(x, y)
			}
		})
	}
}

// BenchmarkRowGram measures the s×s dual-SVM row Gram (Alg. 4 line 9)
// over the worker ladder, and sequentially at gramSizes.
func BenchmarkRowGram(b *testing.B) {
	m, n, k, density := benchDims(b)
	rng := rand.New(rand.NewSource(43))
	csr := randCSR(rng, m, n, density)
	rows := rng.Perm(m)[:k]
	dst := mat.NewDense(k, k)
	for _, w := range benchWorkers() {
		pm := csr.WithKernelWorkers(w).(*CSR)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pm.RowGram(rows, dst)
			}
		})
	}
	for _, sz := range gramSizes {
		if testing.Short() && sz.dim > 1<<20 {
			continue
		}
		b.Run(sz.name, func(b *testing.B) {
			csr := asRows(benchCSC(rng, sz.dim, 2*sz.k, sz.nnz))
			rows, dst := rng.Perm(csr.M)[:sz.k], mat.NewDense(sz.k, sz.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				csr.RowGram(rows, dst)
			}
		})
	}
}
