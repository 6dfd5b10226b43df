package sparse

import (
	"encoding/binary"
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

// FuzzGatherLoops drives gatherDot, fullDot and spmvRows (one CSR
// row per 16-byte record, its indices the records' low bytes, sorted
// and without repeats within a row) with arbitrary bit patterns —
// NaNs, infinities, denormals, -0 — and checks each against its
// reference loop.
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
	})
}
