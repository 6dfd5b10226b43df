package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The gather loops against their reference loops, bit for bit: the
// left-to-right folds whose order defines the deterministic backend
// matrix.

func refGatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	for k := range idx {
		acc += val[k] * x[idx[k]]
	}
	return acc
}

// identity returns the indices 0 … n−1, a full operand's.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// loopBitsEq compares two slices bit for bit, except that any NaN
// matches any NaN: NaN payload propagation through a+b depends on
// hardware operand order and is not part of the determinism contract.
func loopBitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestGatherLoops checks gatherDot, and fullDot against gatherDot over
// the identity indices, against the reference across lengths from
// empty to 100 and unaligned bases, and the length guards.
func TestGatherLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100} {
		for _, off := range []int{0, 1, 3} {
			x := randVec(rng, n+off)[off:]
			y := randVec(rng, n+off)[off:]
			val := randVec(rng, n)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			for _, acc := range []float64{0, 0.5, -2.25} {
				if got, want := gatherDot(acc, val, idx, x), refGatherDot(acc, val, idx, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("gatherDot n=%d off=%d acc=%g: got %x want %x", n, off, acc, got, want)
				}
				if got, want := fullDot(acc, x, y), refGatherDot(acc, x, identity(n), y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fullDot n=%d off=%d acc=%g: got %x want %x", n, off, acc, got, want)
				}
			}
		}
	}

	mustPanic := func(op string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with short companion slice did not panic", op)
			}
		}()
		f()
	}
	x, short := []float64{1, 2, 3}, []float64{1}
	mustPanic("gatherDot", func() { gatherDot(0, short, []int{0, 1, 2}, x) })
	mustPanic("fullDot", func() { fullDot(0, x, short) })
}

// groupedCase builds a CSC whose columns have the given lengths (a
// length must not exceed m), rows spread over [0, m) at random, and
// values drawn from pool.
func groupedCase(rng *rand.Rand, m int, lens []int, pool func() float64) *CSC {
	colPtr := []int{0}
	var rowIdx []int
	var val []float64
	for _, l := range lens {
		step := m / max(l, 1)
		for q := 0; q < l; q++ {
			rowIdx = append(rowIdx, q*step+rng.Intn(step))
			val = append(val, pool())
		}
		colPtr = append(colPtr, len(val))
	}
	return &CSC{M: m, N: len(lens), ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// TestGroupedGatherMatchesGatherDot: ColTMulVec and ColTMulVecAcc run
// gatherDots, four columns a group, and every dst[k] must still have
// the bits of refGatherDot over its own column, from +0 or from the
// running sum already in dst. The table spans 0–9, 13 and 16 columns
// (every remainder of the group width, several groups); equal and
// unequal lengths, one empty column, all columns empty, a column
// repeated inside a group; entries and vectors with −0, ±Inf, NaN and
// subnormals; and, on columns long enough that the work rule forks,
// two kernel workers.
func TestGroupedGatherMatchesGatherDot(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 2.2e-310}
	plain := func() float64 { return rng.NormFloat64() }
	special := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	shapes := []struct {
		name   string
		length func(c, n, base int) int
		repeat bool
	}{
		{"equal", func(c, n, base int) int { return base }, false},
		{"unequal", func(c, n, base int) int { return base + (c*5+3)%7*base/7 }, false},
		{"one-empty", func(c, n, base int) int {
			if c == min(2, n-1) {
				return 0
			}
			return base + (c*5+3)%7*base/7
		}, false},
		{"all-empty", func(c, n, base int) int { return 0 }, false},
		{"repeat", func(c, n, base int) int { return base + (c*5+3)%7*base/7 }, true},
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16} {
		for _, sh := range shapes {
			for _, values := range []struct {
				name string
				draw func() float64
			}{{"plain", plain}, {"special", special}} {
				for _, workers := range []int{1, 2} {
					// At two workers the selected columns hold past
					// 2·2¹⁴ entries (bar the empty ones), so the work
					// rule forks.
					m, base := 64, 20
					if workers == 2 {
						base = (4 << 14) / max(n, 1)
						m = 4 * base
					}
					lens := make([]int, n)
					for c := range lens {
						lens[c] = sh.length(c, n, base)
					}
					a := groupedCase(rng, m, lens, values.draw)
					cols := identity(n)
					if sh.repeat && n >= 2 {
						cols[min(2, n-1)] = cols[0]
					}
					x := make([]float64, m)
					for i := range x {
						x[i] = values.draw()
					}
					pa := a.WithKernelWorkers(workers).(*CSC)
					if w := forkWidth(workers, a.ColPtr, cols, 0); workers == 2 && n >= 2 && sh.name != "all-empty" && w != 2 {
						t.Fatalf("n=%d %s: the work rule grants %d executors; the case must fork", n, sh.name, w)
					}
					name := fmt.Sprintf("n=%d/%s/%s/workers=%d", n, sh.name, values.name, workers)

					got, want := make([]float64, n), make([]float64, n)
					for k := range got {
						got[k] = math.NaN() // ColTMulVec must clear it
						j := cols[k]
						want[k] = refGatherDot(0, a.Val[a.ColPtr[j]:a.ColPtr[j+1]], a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]], x)
					}
					pa.ColTMulVec(cols, x, got)
					if !loopBitsEq(got, want) {
						t.Fatalf("%s: ColTMulVec %v, want %v", name, got, want)
					}
					for k := range got {
						got[k] = values.draw() + 1.5 // a nonzero start
						j := cols[k]
						want[k] = refGatherDot(got[k], a.Val[a.ColPtr[j]:a.ColPtr[j+1]], a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]], x)
					}
					pa.ColTMulVecAcc(cols, x, got)
					if !loopBitsEq(got, want) {
						t.Fatalf("%s: ColTMulVecAcc %v, want %v", name, got, want)
					}
				}
			}
		}
	}
}

func TestSpMVRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols = 17, 29
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var val []float64
	for i := 0; i < rows; i++ {
		nnz := rng.Intn(9) // rows with 0..8 entries, including empties
		cs := rng.Perm(cols)[:nnz]
		sort.Ints(cs)
		for _, c := range cs {
			colIdx = append(colIdx, c)
			val = append(val, rng.NormFloat64())
		}
		rowPtr[i+1] = len(colIdx)
	}
	x := randVec(rng, cols)
	want := make([]float64, rows)
	for i := range want {
		want[i] = refGatherDot(0, val[rowPtr[i]:rowPtr[i+1]], colIdx[rowPtr[i]:rowPtr[i+1]], x)
	}
	got := make([]float64, rows)
	// Split the row range to exercise lo > 0.
	spmvRows(rowPtr, colIdx, val, x, got, 0, 5)
	spmvRows(rowPtr, colIdx, val, x, got, 5, rows)
	if !loopBitsEq(got, want) {
		t.Errorf("spmvRows diverged: got %v want %v", got, want)
	}
}

// FuzzGatherLoops drives gatherDot, fullDot, spmvRows (one CSR row per
// 16-byte record, its indices the records' low bytes, sorted and
// without repeats within a row) and gatherDots (the same rows read as
// CSC columns, selected with repeats by the records' second bytes,
// from the records' y words) with arbitrary bit patterns — NaNs,
// infinities, denormals, -0 — and checks each against its reference
// loop.
func FuzzGatherLoops(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1.5)
	big := make([]byte, 61*8)
	for i := range big {
		big[i] = byte(i * 37)
	}
	f.Add(big, -0.25)
	// Two records whose first row stores both indices: a full row.
	full := make([]byte, 32)
	full[0], full[8], full[16], full[24] = 0, 2, 1, 2
	f.Add(full, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, alpha float64) {
		n := min(len(data)/16, 256)
		x := make([]float64, n)
		y := make([]float64, n)
		idx := make([]int, n)
		rowPtr := make([]int, n+1)
		for i := 0; i < n; i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			idx[i] = int(data[i*16]) % n
			rowPtr[i+1] = max(rowPtr[i], int(data[i*16+8])%(n+1))
		}
		if got, want := gatherDot(alpha, y, idx, x), refGatherDot(alpha, y, idx, x); !loopBitsEq([]float64{got}, []float64{want}) {
			t.Fatalf("gatherDot: %x vs %x", got, want)
		}
		if got, want := fullDot(alpha, x, y), refGatherDot(alpha, x, identity(n), y); !loopBitsEq([]float64{got}, []float64{want}) {
			t.Fatalf("fullDot: %x vs %x", got, want)
		}
		// spmvRows reads valid CSR rows: each row's records, sorted by
		// index with repeats dropped, so a row holding every index is
		// full (0, 1, …) and takes the contiguous path.
		csrPtr := make([]int, n+1)
		var csrIdx []int
		var csrVal []float64
		for i := 0; i < n; i++ {
			ks := make([]int, 0, rowPtr[i+1]-rowPtr[i])
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				ks = append(ks, k)
			}
			sort.SliceStable(ks, func(a, b int) bool { return idx[ks[a]] < idx[ks[b]] })
			for j, k := range ks {
				if j > 0 && idx[k] == idx[ks[j-1]] {
					continue
				}
				csrIdx = append(csrIdx, idx[k])
				csrVal = append(csrVal, y[k])
			}
			csrPtr[i+1] = len(csrIdx)
		}
		got, want := make([]float64, n), make([]float64, n)
		spmvRows(csrPtr, csrIdx, csrVal, x, got, 0, n)
		for i := range want {
			want[i] = refGatherDot(0, csrVal[csrPtr[i]:csrPtr[i+1]], csrIdx[csrPtr[i]:csrPtr[i+1]], x)
		}
		if !loopBitsEq(got, want) {
			t.Fatalf("spmvRows mismatch")
		}
		cols := make([]int, n)
		for k := range cols {
			cols[k] = int(data[k*16+1]) % n
		}
		copy(got, y)
		gatherDots(csrPtr, csrIdx, csrVal, x, cols, got)
		for k, j := range cols {
			want[k] = refGatherDot(y[k], csrVal[csrPtr[j]:csrPtr[j+1]], csrIdx[csrPtr[j]:csrPtr[j+1]], x)
		}
		if !loopBitsEq(got, want) {
			t.Fatalf("gatherDots mismatch")
		}
	})
}
