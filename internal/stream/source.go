package stream

import (
	"fmt"

	"saco/internal/sparse"
)

// RowsCSC assembles rows [lo, hi) as a CSC block — the per-rank loader
// of the simulated cluster's 1D-row Lasso layout (dist.Source). Only
// the covering shards are resident while the block is built, and the
// result has the bytes of RowsToCSC(lo, hi) on the in-memory CSR, so
// distributed trajectories do not change. The assembled rows are
// dropped after the call, so they are converted by ScatterToCSC, which
// keeps no memo. Both layouts take this one path: a LayoutCSC shard
// reaches it through the cache's converted CSR form.
func (d *Dataset) RowsCSC(lo, hi int) (*sparse.CSC, error) {
	if lo < 0 || hi < lo || hi > d.m {
		return nil, fmt.Errorf("stream: RowsCSC [%d,%d) out of range", lo, hi)
	}
	block, err := d.sliceRowsCSR(lo, hi)
	if err != nil {
		return nil, err
	}
	return block.ScatterToCSC(), nil
}

// ColsCSR assembles columns [c0, c1) (reindexed to zero, all rows) as a
// CSR block — the per-rank loader of the 1D-column SVM layout
// (dist.Source). One sequential pass over the shards in their CSR form;
// peak memory is one shard plus the assembled block, which holds ~nnz/P
// of the data.
func (d *Dataset) ColsCSR(c0, c1 int) (*sparse.CSR, error) {
	if c0 < 0 || c1 < c0 || c1 > d.n {
		return nil, fmt.Errorf("stream: ColsCSR [%d,%d) out of range", c0, c1)
	}
	rowPtr := make([]int, 1, d.m+1)
	var colIdx []int
	var vals []float64
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
