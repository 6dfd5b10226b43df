package sparse

import "fmt"

// The gather loops of the CSR/CSC kernels. Like mat's BLAS-1 loops
// they are the bitwise reference: every sum runs left to right in its
// operand's own index order, and the deterministic backend matrix is
// defined by that order. gatherDots, the column product, runs four
// such sums at once as independent chains; interleaving them changes
// when each addition happens, never which additions a sum makes or in
// what order, so each sum keeps gatherDot's bits.

// gatherDot returns acc + Σ val[k]·x[idx[k]] — the sparse-row dot
// product of every CSR/CSC kernel. len(val) must be at least len(idx).
func gatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	if len(val) < len(idx) {
		panic(fmt.Sprintf("sparse: gatherDot len(val)=%d < len(idx)=%d", len(val), len(idx)))
	}
	for k, j := range idx {
		acc += val[k] * x[j]
	}
	return acc
}

// gatherDots continues dst[k] += Σ_p val[p]·x[idx[p]] over the entries
// p ∈ [ptr[j], ptr[j+1]) of each column j = cols[k] — CSC.ColTMulVec's
// product, with gatherDot(dst[k], column j, x)'s bits for every k.
//
// Columns are taken four at a time. Over the group's common length
// (the smallest of the four entry counts) gatherDot4 runs four
// independent accumulator chains, so one column's 4-cycle add latency
// overlaps the others' adds and their cold loads are in flight
// together; each column's tail is then finished by gatherDot from that
// column's own chain, and the len(cols) mod 4 leftover columns by
// gatherDot alone. The width is a measured constant: on a 2-vCPU
// x86-64 host, the `lasso-classic` shape (16 384 × 8 192, µ = 8,
// s = 1) gave −8 to −10 % of the solve at two columns, −12 to −18 % at
// four and no more at eight, where the chains' pointers no longer fit
// in registers; warm µ = 8 products (BenchmarkColTMulVec's shape,
// medians of 5) took 610 ns at one column, 562 at two, 465 at four and
// 581 at eight. CSR.RowMulVec keeps one row a loop: grouped the same
// way it showed nothing on the `svm-sa` solve (4 pairs level).
func gatherDots(ptr, idx []int, val, x []float64, cols []int, dst []float64) {
	dst = dst[:len(cols)]
	k := 0
	for ; k+4 <= len(cols); k += 4 {
		j0, j1, j2, j3 := cols[k], cols[k+1], cols[k+2], cols[k+3]
		i0, i1, i2, i3 := idx[ptr[j0]:ptr[j0+1]], idx[ptr[j1]:ptr[j1+1]], idx[ptr[j2]:ptr[j2+1]], idx[ptr[j3]:ptr[j3+1]]
		v0, v1, v2, v3 := val[ptr[j0]:ptr[j0+1]], val[ptr[j1]:ptr[j1+1]], val[ptr[j2]:ptr[j2+1]], val[ptr[j3]:ptr[j3+1]]
		n := min(len(i0), len(i1), len(i2), len(i3))
		s := [4]float64{dst[k], dst[k+1], dst[k+2], dst[k+3]}
		gatherDot4(&s, x, i0[:n], i1[:n], i2[:n], i3[:n], v0[:n], v1[:n], v2[:n], v3[:n])
		dst[k] = gatherDot(s[0], v0[n:], i0[n:], x)
		dst[k+1] = gatherDot(s[1], v1[n:], i1[n:], x)
		dst[k+2] = gatherDot(s[2], v2[n:], i2[n:], x)
		dst[k+3] = gatherDot(s[3], v3[n:], i3[n:], x)
	}
	for ; k < len(cols); k++ {
		j := cols[k]
		dst[k] = gatherDot(dst[k], val[ptr[j]:ptr[j+1]], idx[ptr[j]:ptr[j+1]], x)
	}
}

// gatherDot4 continues s[c] += Σ_r w_c[r]·x[h_c[r]] for the four
// columns c, each chain left to right; every slice is len(h0) long. It
// is not inlined: inside gatherDots' loop nest the eight column
// pointers and the loop counter would spill, and the counter's
// store-to-load round trip would join every step.
//
//go:noinline
func gatherDot4(s *[4]float64, x []float64, h0, h1, h2, h3 []int, w0, w1, w2, w3 []float64) {
	n := len(h0)
	h1, h2, h3 = h1[:n], h2[:n], h3[:n]
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for r := range h0 {
		s0 += w0[r] * x[h0[r]]
		s1 += w1[r] * x[h1[r]]
		s2 += w2[r] * x[h2[r]]
		s3 += w3[r] * x[h3[r]]
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// spmvRows computes y[i] = Σ_k val[k]·x[colIdx[k]] over each CSR row i
// in [lo, hi) — the fused gather-multiply-accumulate row loop of
// CSR.MulVec. A full row (it stores all len(x) columns, so its indices
// are 0, 1, …) is the contiguous fullDot, with the gather's bits.
func spmvRows(rowPtr, colIdx []int, val, x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p0, p1 := rowPtr[i], rowPtr[i+1]
		if p1-p0 == len(x) {
			y[i] = fullDot(0, val[p0:p1], x)
			continue
		}
		var s float64
		for k := p0; k < p1; k++ {
			s += val[k] * x[colIdx[k]]
		}
		y[i] = s
	}
}

// fullDot returns acc + Σ x[r]·y[r], left to right: gatherDot over two
// full operands, whose indices are 0, 1, …. len(y) must be at least
// len(x). It is not inlined: inside a caller's larger loop nest its
// counter would spill, and the store-to-load round trip would join
// every step's dependency chain.
//
//go:noinline
func fullDot(acc float64, x, y []float64) float64 {
	y = y[:len(x)]
	for r, v := range x {
		acc += v * y[r]
	}
	return acc
}
