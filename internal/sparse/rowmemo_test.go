package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzRowsToCSC decodes a CSR of at most 12×12 (empty rows and columns
// allowed, stored values including ±0, ±Inf and NaN) and a sequence of
// row ranges, converts each range in turn and checks the block against
// the SliceRows oracle bit for bit, and the memo's invariant after
// every call: no two held ranges overlap.
func FuzzRowsToCSC(f *testing.F) {
	f.Add([]byte{12, 12, 0xff, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 13, 3, 4, 3, 4, 0, 0})
	f.Add([]byte{5, 3, 0x05, 0, 200, 100, 0x02, 0, 0, 0, 0, 0, 0x07, 0, 3, 4, 5, 2, 1, 6, 0, 6})
	f.Add([]byte{0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, ranges := decodeRowsFuzz(data)
		for _, r := range ranges {
			got := a.RowsToCSC(r[0], r[1])
			if want := oracleToCSC(a.SliceRows(r[0], r[1])); !cscBitsEqual(got, want) {
				t.Fatalf("rows [%d,%d) of %dx%d: RowsToCSC %+v, oracle %+v", r[0], r[1], a.M, a.N, got, want)
			}
			checkHeld(t, a)
		}
	})
}

// decodeRowsFuzz reads m and n (mod 13), then per row a 12-bit column
// mask and one value byte per set bit, then (r0, r1) byte pairs folded
// into valid ranges. Missing bytes read as zero.
func decodeRowsFuzz(data []byte) (*CSR, [][2]int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	m, n := int(next()%13), int(next()%13)
	rowPtr := []int{0}
	var colIdx []int
	var val []float64
	for i := 0; i < m; i++ {
		mask := int(next()) | int(next())<<8
		for j := 0; j < n; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			raw := int(next())
			v := float64(raw-128) / 4
			if raw < len(gramSpecials) {
				v = gramSpecials[raw]
			}
			colIdx = append(colIdx, j)
			val = append(val, v)
		}
		rowPtr = append(rowPtr, len(val))
	}
	a := &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	var ranges [][2]int
	for len(data) > 0 {
		r0 := int(next()) % (m + 1)
		ranges = append(ranges, [2]int{r0, r0 + int(next())%(m+1-r0)})
	}
	return a, ranges
}

// cscBitsEqual compares two CSCs field by field, values by their bits.
func cscBitsEqual(x, y *CSC) bool {
	return x.M == y.M && x.N == y.N && slices.Equal(x.ColPtr, y.ColPtr) && slices.Equal(x.RowIdx, y.RowIdx) &&
		slices.EqualFunc(x.Val, y.Val, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// BenchmarkRowsToCSC converts rank 0's block of the repo benchmark's
// dist-lasso matrix at P = 2: rows [0, 8192) of 16384×8192 with 41
// nonzeros per row (about 336k in the block). cold converts on a
// matrix that holds no block, which is what the first solve on a
// matrix pays (and all a one-solve process ever pays); warm is every
// later request for the same range.
func BenchmarkRowsToCSC(b *testing.B) {
	a := asRows(benchCSC(rand.New(rand.NewSource(43)), 8192, 16384, 41))
	r1 := a.M / 2
	b.Run("cold", func(b *testing.B) {
		for b.Loop() {
			c := &CSR{M: a.M, N: a.N, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
			c.RowsToCSC(0, r1)
		}
	})
	b.Run("warm", func(b *testing.B) {
		a.RowsToCSC(0, r1)
		for b.Loop() {
			a.RowsToCSC(0, r1)
		}
	})
}
