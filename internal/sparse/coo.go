package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format builder for sparse matrices. Entries may be
// added in any order; duplicates are summed when converting. The zero
// value is unusable; construct with NewCOO.
type COO struct {
	m, n int
	rows []int
	cols []int
	vals []float64
}

// NewCOO returns an empty m-by-n builder.
func NewCOO(m, n int) *COO {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("sparse: NewCOO negative dimension %dx%d", m, n))
	}
	return &COO{m: m, n: n}
}

// NNZ returns the number of stored entries (before duplicate merging).
func (c *COO) NNZ() int { return len(c.vals) }

// Add appends the entry (i, j, v). Explicit zeros are dropped.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.m || j < 0 || j >= c.n {
		panic(fmt.Sprintf("sparse: COO.Add (%d,%d) out of range %dx%d", i, j, c.m, c.n))
	}
	if v == 0 {
		return
	}
	c.rows = append(c.rows, i)
	c.cols = append(c.cols, j)
	c.vals = append(c.vals, v)
}

// ToCSR converts the accumulated entries to CSR, summing duplicates.
func (c *COO) ToCSR() *CSR {
	type ent struct {
		r, c int
		v    float64
	}
	ents := make([]ent, len(c.vals))
	for i := range c.vals {
		ents[i] = ent{c.rows[i], c.cols[i], c.vals[i]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].r != ents[b].r {
			return ents[a].r < ents[b].r
		}
		return ents[a].c < ents[b].c
	})
	rowPtr := make([]int, c.m+1)
	colIdx := make([]int, 0, len(ents))
	vals := make([]float64, 0, len(ents))
	for i := 0; i < len(ents); {
		j := i
		v := 0.0
		for j < len(ents) && ents[j].r == ents[i].r && ents[j].c == ents[i].c {
			v += ents[j].v
			j++
		}
		if v != 0 {
			colIdx = append(colIdx, ents[i].c)
			vals = append(vals, v)
			rowPtr[ents[i].r+1]++
		}
		i = j
	}
	for i := 0; i < c.m; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{M: c.m, N: c.n, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
}

// ToCSC converts the accumulated entries to CSC, summing duplicates.
func (c *COO) ToCSC() *CSC { return c.ToCSR().ToCSC() }
