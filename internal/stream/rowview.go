package stream

import (
	"sort"

	"saco/internal/mat"
	"saco/internal/sparse"
)

// RowStream is the out-of-core core.RowMatrix view of a Dataset: the
// access pattern of the dual coordinate-descent SVM solvers (sampled
// row Grams, hoisted row·x products, rank-one primal updates).
// LayoutCSR is its layout: shards decode straight to the rows it reads,
// and a LayoutCSC store converts each shard once per load. Rows live
// whole inside one shard (the 1D-row partitioning), so every row kernel
// reproduces the in-memory sparse.CSR arithmetic exactly and
// sequential-backend trajectories are bitwise identical.
//
// Sampled access is not sequential, so the view batches: RowGram and
// RowMulVec gather the sampled rows shard by shard (ascending, each
// covering shard loaded once per call) into a resident mini-CSR that is
// memoized until the sampled set changes — the s-step SVM's per-outer
// RowGram + RowMulVec + s RowTAxpy sequence then costs one pass over
// the covering shards instead of one load per touched row. Single-row
// calls outside the memoized set (classical s = 1 solves) fall back to
// the shard cache.
type RowStream struct {
	d *Dataset

	// Memoized gather of the last sampled row set.
	gathered *sparse.CSR
	rowOf    map[int]int // global row -> gathered row
	local    []int       // the last sampled rows as gathered rows
}

// Rows returns the row-access streaming view (for saco.SVM).
func (d *Dataset) Rows() *RowStream {
	return &RowStream{d: d, rowOf: make(map[int]int)}
}

// Dims returns (rows, columns).
func (v *RowStream) Dims() (int, int) { return v.d.m, v.d.n }

// RowNormSq returns ‖A_i‖².
func (v *RowStream) RowNormSq(i int) float64 {
	if g, ok := v.rowOf[i]; ok {
		return v.gathered.RowNormSq(g)
	}
	si, li := v.d.locate(i)
	return mustLoad(v.d.cache.getCSR(si, false)).RowNormSq(li)
}

// RowTAxpy performs x += alpha·A_rowᵀ.
func (v *RowStream) RowTAxpy(row int, alpha float64, x []float64) {
	if len(x) != v.d.n {
		panic("stream: RowTAxpy shape mismatch")
	}
	if g, ok := v.rowOf[row]; ok {
		v.gathered.RowTAxpy(g, alpha, x)
		return
	}
	si, li := v.d.locate(row)
	mustLoad(v.d.cache.getCSR(si, false)).RowTAxpy(li, alpha, x)
}

// RowMulVec computes dst[k] = A_rows[k] · x: sparse.CSR.RowMulVec on
// the gathered sample, with the sampled rows mapped to their gathered
// ids.
func (v *RowStream) RowMulVec(rows []int, x []float64, dst []float64) {
	if len(x) != v.d.n || len(dst) != len(rows) {
		panic("stream: RowMulVec shape mismatch")
	}
	v.gathered.RowMulVec(v.gatherLocal(rows), x, dst)
}

// RowGram computes dst = A_R·A_Rᵀ (|R|×|R|, upper triangle, +0 below):
// sparse.CSR.RowGram on the gathered sample, with the sampled rows
// mapped to their gathered ids.
func (v *RowStream) RowGram(rows []int, dst *mat.Dense) {
	if dst.R != len(rows) || dst.C != len(rows) {
		panic("stream: RowGram dst shape mismatch")
	}
	v.gathered.RowGram(v.gatherLocal(rows), dst)
}

// gatherLocal gathers rows and returns them as gathered row ids, valid
// until the next call.
func (v *RowStream) gatherLocal(rows []int) []int {
	v.gather(rows)
	v.local = v.local[:0]
	for _, r := range rows {
		v.local = append(v.local, v.rowOf[r])
	}
	return v.local
}

// MulVec computes y = A·x with one sequential prefetched pass.
func (v *RowStream) MulVec(x, y []float64) {
	if len(x) != v.d.n || len(y) != v.d.m {
		panic("stream: MulVec shape mismatch")
	}
	mustLoad(0, v.d.forEachCSR(func(info ShardInfo, a *sparse.CSR) {
		a.MulVec(x, y[info.Row0:info.Row0+info.Rows])
	}))
}

// gather extracts the distinct sampled rows into the memoized mini-CSR,
// visiting each covering shard once in ascending order. A repeated call
// with rows already gathered is free.
func (v *RowStream) gather(rows []int) {
	if v.gathered != nil {
		hit := true
		for _, r := range rows {
			if _, ok := v.rowOf[r]; !ok {
				hit = false
				break
			}
		}
		if hit {
			return
		}
	}
	distinct := make([]int, 0, len(rows))
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if !seen[r] {
			seen[r] = true
			distinct = append(distinct, r)
		}
	}
	// Ascending global order groups rows by shard; each shard loads once.
	sort.Ints(distinct)

	clear(v.rowOf)
	rowPtr := make([]int, 1, len(distinct)+1)
	var colIdx []int
	var vals []float64
	var cur *sparse.CSR
	curShard := -1
	for _, r := range distinct {
		si, li := v.d.locate(r)
		if si != curShard {
			cur = mustLoad(v.d.cache.getCSR(si, false))
			curShard = si
		}
		lo, hi := cur.RowPtr[li], cur.RowPtr[li+1]
		colIdx = append(colIdx, cur.ColIdx[lo:hi]...)
		vals = append(vals, cur.Val[lo:hi]...)
		v.rowOf[r] = len(rowPtr) - 1
		rowPtr = append(rowPtr, len(vals))
	}
	v.gathered = &sparse.CSR{M: len(distinct), N: v.d.n, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
}
