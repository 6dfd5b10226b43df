package stream

import (
	"fmt"
	"sort"

	"saco/internal/sparse"
)

// RowsCSC assembles rows [lo, hi) as a CSC block — the per-rank loader
// of the simulated cluster's 1D-row Lasso layout (dist.Source). Only
// the covering shards are resident while the block is built, and the
// result is structurally identical to SliceRows(lo, hi).ToCSC() on the
// in-memory CSR, so distributed trajectories do not change. On a
// LayoutCSC store the block is assembled straight from the native
// column-major shards (no CSR conversion).
func (d *Dataset) RowsCSC(lo, hi int) (*sparse.CSC, error) {
	if lo < 0 || hi < lo || hi > d.m {
		return nil, fmt.Errorf("stream: RowsCSC [%d,%d) out of range", lo, hi)
	}
	if d.layout == LayoutCSC {
		return d.sliceRowsCSCNative(lo, hi)
	}
	block, err := d.sliceRowsCSR(lo, hi)
	if err != nil {
		return nil, err
	}
	return block.ToCSC(), nil
}

// ColsCSR assembles columns [c0, c1) (reindexed to zero, all rows) as a
// CSR block — the per-rank loader of the 1D-column SVM layout
// (dist.Source). One sequential pass over the shards; peak memory is
// one shard plus the assembled block, which holds ~nnz/P of the data.
// On a LayoutCSC store each shard contributes its column band through a
// block-local counting transpose (band-proportional work, no full-shard
// conversion).
func (d *Dataset) ColsCSR(c0, c1 int) (*sparse.CSR, error) {
	if c0 < 0 || c1 < c0 || c1 > d.n {
		return nil, fmt.Errorf("stream: ColsCSR [%d,%d) out of range", c0, c1)
	}
	rowPtr := make([]int, 1, d.m+1)
	var colIdx []int
	var vals []float64
	if d.layout == LayoutCSC {
		err := d.forEachCSC(func(_ ShardInfo, a *sparse.CSC) {
			appendBandCSR(a, c0, c1, &rowPtr, &colIdx, &vals)
		})
		if err != nil {
			return nil, err
		}
		return &sparse.CSR{M: d.m, N: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}, nil
	}
	err := d.forEachCSR(func(_ ShardInfo, a *sparse.CSR) {
		for i := 0; i < a.M; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if c := a.ColIdx[k]; c >= c0 && c < c1 {
					colIdx = append(colIdx, c-c0)
					vals = append(vals, a.Val[k])
				}
			}
			rowPtr = append(rowPtr, len(vals))
		}
	})
	if err != nil {
		return nil, err
	}
	return &sparse.CSR{M: d.m, N: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}, nil
}

// appendBandCSR transposes the column band [c0, c1) of one CSC shard
// into CSR rows appended to the output arrays: count entries per local
// row, prefix-sum, then fill by ascending column so each row's indices
// come out strictly increasing — the same canonical order SliceCols
// produces on the in-memory CSR.
func appendBandCSR(a *sparse.CSC, c0, c1 int, rowPtr *[]int, colIdx *[]int, vals *[]float64) {
	counts := make([]int, a.M+1)
	for j := c0; j < c1; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			counts[a.RowIdx[p]+1]++
		}
	}
	for i := 0; i < a.M; i++ {
		counts[i+1] += counts[i]
	}
	bandNNZ := counts[a.M]
	base := len(*vals)
	*colIdx = append(*colIdx, make([]int, bandNNZ)...)
	*vals = append(*vals, make([]float64, bandNNZ)...)
	next := counts // reuse: next[i] is the fill cursor of local row i
	for j := c0; j < c1; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			r := a.RowIdx[p]
			q := base + next[r]
			(*colIdx)[q] = j - c0
			(*vals)[q] = a.Val[p]
			next[r]++
		}
	}
	// next[i] now equals the end offset of local row i (counts was the
	// start offsets before filling); it is exactly the per-row prefix.
	for i := 0; i < a.M; i++ {
		*rowPtr = append(*rowPtr, base+next[i])
	}
}

// sliceRowsCSCNative concatenates the row range [lo, hi) of a LayoutCSC
// store column by column: two passes over the covering shards (count,
// fill). Within each shard column the local rows are strictly
// increasing, so the [l0, l1) window is located by binary search and
// only its entries are touched — O(n·log + range-nnz) per shard, not a
// full-shard filter (simulated ranks whose row blocks subdivide a shard
// would otherwise each rescan all of it). Shards are visited in
// ascending row order, so every global column's rows come out strictly
// increasing.
func (d *Dataset) sliceRowsCSCNative(lo, hi int) (*sparse.CSC, error) {
	colPtr := make([]int, d.n+1)
	covering := func(f func(info ShardInfo, a *sparse.CSC, l0, l1 int)) error {
		for si, info := range d.shards {
			s0, s1 := max(lo, info.Row0), min(hi, info.Row0+info.Rows)
			if s0 >= s1 {
				continue
			}
			a, err := d.cache.getCSC(si, true)
			if err != nil {
				return err
			}
			f(info, a, s0-info.Row0, s1-info.Row0)
		}
		return nil
	}
	// window returns the [p0, p1) index range of column j whose local
	// rows fall in [l0, l1).
	window := func(a *sparse.CSC, j, l0, l1 int) (int, int) {
		c0, c1 := a.ColPtr[j], a.ColPtr[j+1]
		seg := a.RowIdx[c0:c1]
		p0 := c0 + sort.SearchInts(seg, l0)
		p1 := c0 + sort.SearchInts(seg, l1)
		return p0, p1
	}
	if err := covering(func(_ ShardInfo, a *sparse.CSC, l0, l1 int) {
		for j := 0; j < d.n; j++ {
			p0, p1 := window(a, j, l0, l1)
			colPtr[j+1] += p1 - p0
		}
	}); err != nil {
		return nil, err
	}
	for j := 0; j < d.n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, colPtr[d.n])
	vals := make([]float64, colPtr[d.n])
	next := append([]int(nil), colPtr[:d.n]...)
	if err := covering(func(info ShardInfo, a *sparse.CSC, l0, l1 int) {
		rebase := info.Row0 - lo
		for j := 0; j < d.n; j++ {
			p0, p1 := window(a, j, l0, l1)
			for p := p0; p < p1; p++ {
				rowIdx[next[j]] = a.RowIdx[p] + rebase
				vals[next[j]] = a.Val[p]
				next[j]++
			}
		}
	}); err != nil {
		return nil, err
	}
	return &sparse.CSC{M: hi - lo, N: d.n, ColPtr: colPtr, RowIdx: rowIdx, Val: vals}, nil
}

// sliceRowsCSR concatenates the shard fragments covering rows [lo, hi),
// which RowsCSC has checked.
func (d *Dataset) sliceRowsCSR(lo, hi int) (*sparse.CSR, error) {
	rowPtr := make([]int, 1, hi-lo+1)
	var colIdx []int
	var vals []float64
	for si := range d.shards {
		info := d.shards[si]
		s0, s1 := max(lo, info.Row0), min(hi, info.Row0+info.Rows)
		if s0 >= s1 {
			continue
		}
		a, err := d.cache.getCSR(si, true)
		if err != nil {
			return nil, err
		}
		for i := s0 - info.Row0; i < s1-info.Row0; i++ {
			p0, p1 := a.RowPtr[i], a.RowPtr[i+1]
			colIdx = append(colIdx, a.ColIdx[p0:p1]...)
			vals = append(vals, a.Val[p0:p1]...)
			rowPtr = append(rowPtr, len(vals))
		}
	}
	return &sparse.CSR{M: hi - lo, N: d.n, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}, nil
}
