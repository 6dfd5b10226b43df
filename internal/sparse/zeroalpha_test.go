package sparse

import (
	"math"
	"testing"

	"saco/internal/mat"
)

// One test per Axpy-family variant: alpha == 0 (or an all-zero
// coefficient) must leave the destination untouched bit for bit — no
// -0 → +0 normalization, no NaN produced from 0·Inf — for sparse
// matrices and for matrices that store every entry (dense data). This
// pins the unified semantic documented in internal/mat (historically
// mat.ScatterAxpy disagreed with the rest of the family).

// poison returns a destination whose bits detect any write: NaN, ±Inf,
// -0 and ordinary values.
func poison(n int) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.25, -3}
	out := make([]float64, n)
	for i := range out {
		out[i] = specials[i%len(specials)]
	}
	return out
}

func assertUntouched(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: alpha==0 modified dst[%d]: %x -> %x",
				what, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
		}
	}
}

func zeroAlphaFixture(t *testing.T) (*CSR, *CSC, *CSR) {
	t.Helper()
	a, err := NewCSR(3, 4,
		[]int{0, 2, 3, 5},
		[]int{0, 2, 1, 0, 3},
		[]float64{1, math.Inf(1), -2, math.NaN(), 4})
	if err != nil {
		t.Fatal(err)
	}
	return a, a.ToCSC(), storeAll(a)
}

func TestZeroAlphaCSRRowTAxpy(t *testing.T) {
	a, _, _ := zeroAlphaFixture(t)
	want := poison(a.N)
	got := append([]float64(nil), want...)
	a.RowTAxpy(2, 0, got)
	assertUntouched(t, "CSR.RowTAxpy", got, want)
}

func TestZeroAlphaDenseRowsRowTAxpy(t *testing.T) {
	_, _, rows := zeroAlphaFixture(t)
	want := poison(rows.N)
	got := append([]float64(nil), want...)
	rows.RowTAxpy(2, 0, got)
	assertUntouched(t, "dense CSR.RowTAxpy", got, want)
}

func TestZeroAlphaCSCColMulAdd(t *testing.T) {
	_, c, _ := zeroAlphaFixture(t)
	want := poison(c.M)
	got := append([]float64(nil), want...)
	c.ColMulAdd([]int{0, 2, 3}, []float64{0, 0, 0}, got)
	assertUntouched(t, "CSC.ColMulAdd", got, want)
}

// TestZeroAlphaDenseColsPairConsistent: over full columns (the zeros
// explicit, NaN and Inf stored) all-zero coefficients leave v untouched
// in ColMulAdd.
func TestZeroAlphaDenseColsPairConsistent(t *testing.T) {
	_, _, rows := zeroAlphaFixture(t)
	cols := rows.ToCSC()
	base := []float64{1.25, math.Copysign(0, -1), -3}
	plain := append([]float64(nil), base...)
	cols.ColMulAdd([]int{0, 2}, []float64{0, 0}, plain)
	assertUntouched(t, "dense CSC.ColMulAdd", plain, base)
}

func TestZeroAlphaMatAxpy(t *testing.T) {
	want := poison(7)
	got := append([]float64(nil), want...)
	mat.Axpy(0, []float64{1, math.Inf(1), math.NaN(), 2, 3, 4, 5}, got)
	assertUntouched(t, "mat.Axpy", got, want)
}

func TestZeroAlphaMatScatterAxpy(t *testing.T) {
	want := poison(7)
	got := append([]float64(nil), want...)
	mat.ScatterAxpy(0, got, []float64{math.Inf(1), math.NaN(), 2}, []int{1, 4, 6})
	assertUntouched(t, "mat.ScatterAxpy", got, want)
}
