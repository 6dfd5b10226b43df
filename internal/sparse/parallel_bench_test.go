package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
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
// under -short (5 % dense), local runs measure at paper-figure scale
// (2 % dense). perCol is the entries per column.
func benchDims(b *testing.B) (m, n, k, perCol int) {
	if testing.Short() {
		return 2000, 800, 64, 100
	}
	return 20000, 4000, 256, 400
}

// benchCSC builds an m×n CSC with about perCol entries per column at
// jittered strides, in time proportional to the entries (randCSR draws
// every cell, which a benchmark-sized matrix cannot afford).
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

// uniformCSC builds an m×n CSC whose columns each store perCol rows
// drawn uniformly without replacement, as the repo benchmark's
// generator does: matches between columns fall where they fall, not at
// benchCSC's even strides.
func uniformCSC(rng *rand.Rand, m, n, perCol int) *CSC {
	colPtr := make([]int, 1, n+1)
	rowIdx := make([]int, 0, n*perCol)
	val := make([]float64, 0, n*perCol)
	taken := make([]bool, m)
	for j := 0; j < n; j++ {
		col := rowIdx[len(rowIdx):]
		for len(col) < perCol {
			if r := rng.Intn(m); !taken[r] {
				taken[r] = true
				col = append(col, r)
			}
		}
		sort.Ints(col)
		for _, r := range col {
			taken[r] = false
			val = append(val, rng.NormFloat64())
		}
		rowIdx = rowIdx[:len(rowIdx)+perCol]
		colPtr = append(colPtr, len(val))
	}
	return &CSC{M: m, N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// coldGramSizes are solver-shaped Gram calls: the repo benchmark's
// Lasso matrix (16384 × 8192, 82 uniform rows per column, about 8 MB)
// at its s=1 block and s=16 batch, each op on the next of a pool of
// 256 column sets sampled with repeats, so that, as in core.Lasso, an
// op mostly reads columns the previous ops did not.
var coldGramSizes = []struct {
	name string
	k    int
}{
	{"k=8/cold", 8},
	{"k=128/cold", 128},
}

// gramSizes are the sequential Gram shapes a kernel change answers to:
// the repo benchmark's Lasso problem (16384 indices, 82 per operand) at
// the s=1 block (k=8), two intermediate batches and the s=16 batch
// (k=128); the same batch over 4 M indices, where the workspace is far
// out of cache; and the SVM problem's s=64 batch (8192 indices, 41 per
// operand).
var gramSizes = []struct {
	name        string
	dim, k, nnz int
}{
	{"k=8", 16384, 8, 82},
	{"k=16", 16384, 16, 82},
	{"k=32", 16384, 32, 82},
	{"k=128", 16384, 128, 82},
	{"k=128/rows=4M", 4 << 20, 128, 82},
	{"k=64/svm", 8192, 64, 41},
}

// denseGramSizes are sequential Grams over full operands, the shapes of
// the dense replicas: epsilon's 4000 rows at the s=16 batch of µ=8
// (k=128), and leu's 38 rows at the batch of genomics' s=128 (k=1024).
var denseGramSizes = []struct {
	name   string
	dim, k int
}{
	{"dense/rows=4000/k=128", 4000, 128},
	{"dense/rows=38/k=1024", 38, 1024},
}

// fullCSC builds an m×n CSC that stores every entry, N(0,1) values.
func fullCSC(rng *rand.Rand, m, n int) *CSC {
	colPtr := make([]int, n+1)
	rowIdx := make([]int, m*n)
	val := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for r := 0; r < m; r++ {
			rowIdx[j*m+r], val[j*m+r] = r, rng.NormFloat64()
		}
		colPtr[j+1] = (j + 1) * m
	}
	return &CSC{M: m, N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// BenchmarkGram measures the batched sµ×sµ Gram assembly G = YᵀY of the
// SA Lasso outer iteration (Alg. 2 line 11) at one worker versus all
// cores — the kernel the paper's batched-communication trade lives on —
// and sequentially at gramSizes and denseGramSizes.
func BenchmarkGram(b *testing.B) {
	m, n, k, perCol := benchDims(b)
	rng := rand.New(rand.NewSource(41))
	csc := uniformCSC(rng, m, n, perCol)
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
	for _, sz := range denseGramSizes {
		b.Run(sz.name, func(b *testing.B) {
			csc := fullCSC(rng, sz.dim, 2*sz.k)
			cols, dst := rng.Perm(csc.N)[:sz.k], mat.NewDense(sz.k, sz.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				csc.ColGram(cols, dst)
			}
		})
	}
	if testing.Short() {
		return
	}
	lasso := uniformCSC(rng, 16384, 8192, 82)
	for _, sz := range coldGramSizes {
		b.Run(sz.name, func(b *testing.B) {
			pool := make([][]int, 256)
			for i := range pool {
				pool[i] = sampleWithRepeats(rng, lasso.N, sz.k)
			}
			dst := mat.NewDense(sz.k, sz.k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lasso.ColGram(pool[i%len(pool)], dst)
			}
		})
	}
}

// BenchmarkSpMV measures the row-partitioned CSR y = A·x kernel.
func BenchmarkSpMV(b *testing.B) {
	m, n, _, perCol := benchDims(b)
	rng := rand.New(rand.NewSource(42))
	csr := uniformCSC(rng, m, n, perCol).ToCSR()
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
// over the worker ladder, sequentially at gramSizes, and at the repo
// benchmark's SVM batch cold (k=64/svm/cold): the rows of a 16384 ×
// 8192 CSR with 41 uniform columns per row (about 8 MB), each op on the
// next of a pool of 256 row sets sampled with repeats, as core.SVM
// samples them, like coldGramSizes.
func BenchmarkRowGram(b *testing.B) {
	m, n, k, perCol := benchDims(b)
	rng := rand.New(rand.NewSource(43))
	csr := uniformCSC(rng, m, n, perCol).ToCSR()
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
	if testing.Short() {
		return
	}
	b.Run("k=64/svm/cold", func(b *testing.B) {
		svm := asRows(uniformCSC(rng, 8192, 16384, 41))
		pool := make([][]int, 256)
		for i := range pool {
			pool[i] = sampleWithRepeats(rng, svm.M, 64)
		}
		dst := mat.NewDense(64, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svm.RowGram(pool[i%len(pool)], dst)
		}
	})
}

// BenchmarkColTMulVec measures the product dst = A_Sᵀ·v of Alg. 1
// lines 8–9 on the repo benchmark's Lasso matrix (16 384 × 8 192, 82
// uniform rows per column, density 0.005): the s = 1 block of µ = 8
// columns warm (the same columns every op) and cold (each op the next
// of a pool of column sets sampled with repeats that together read
// the matrix about once, as consecutive core.Lasso iterations do), and
// 400 columns (32 800 entries, past the work rule at two executors) at
// one and two kernel workers.
func BenchmarkColTMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	lasso := uniformCSC(rng, 16384, 8192, 82)
	v := randVec(rng, lasso.M)
	run := func(b *testing.B, a *CSC, pool [][]int) {
		dst := make([]float64, len(pool[0]))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.ColTMulVec(pool[i%len(pool)], v, dst)
		}
	}
	b.Run("k=8/warm", func(b *testing.B) { run(b, lasso, [][]int{sampleWithRepeats(rng, lasso.N, 8)}) })
	b.Run("k=8/cold", func(b *testing.B) {
		pool := make([][]int, lasso.N/8)
		for i := range pool {
			pool[i] = sampleWithRepeats(rng, lasso.N, 8)
		}
		run(b, lasso, pool)
	})
	wide := [][]int{sampleWithRepeats(rng, lasso.N, 400)}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=400/workers=%d", w), func(b *testing.B) { run(b, lasso.WithKernelWorkers(w).(*CSC), wide) })
	}
}
