package sparse

import (
	"math/rand"
	"testing"
)

// randSparseVec builds a random k-nonzero sparse vector over [0,n) as
// strictly increasing (idx, val) pairs.
func randSparseVec(rng *rand.Rand, n, k int) ([]int, []float64) {
	perm := rng.Perm(n)[:k]
	idx := append([]int(nil), perm...)
	for i := 1; i < len(idx); i++ { // insertion sort; k is small
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	val := make([]float64, k)
	for i := range val {
		val[i] = rng.NormFloat64()
	}
	return idx, val
}

// TestMulSparseVecAgainstDense checks the sparse-model kernel against
// the plain MulVec of the model's dense expansion. The merge kernel
// sums exactly the nonzero products the dense kernel sums (in the same
// column order, skipping only exact-zero terms), so the comparison is
// exact, not a tolerance.
func TestMulSparseVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 60, 40, 0.15)
	idx, val := randSparseVec(rng, 40, 9)
	dense := make([]float64, 40)
	for k, j := range idx {
		dense[j] = val[k]
	}

	want := make([]float64, 60)
	a.MulVec(dense, want)

	got := make([]float64, 60)
	a.MulSparseVec(idx, val, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: MulSparseVec %v != MulVec %v", i, got[i], want[i])
		}
	}
}

// TestMulSparseVecBatchedBitwise is the serving contract at the kernel
// level: scoring a batch in one call — at any worker width — is bitwise
// identical to scoring each row through its own single-row matrix.
func TestMulSparseVecBatchedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randCSR(rng, 200, 64, 0.2)
	idx, val := randSparseVec(rng, 64, 12)

	perRow := make([]float64, a.M)
	one := make([]float64, 1)
	for i := 0; i < a.M; i++ {
		row, err := NewCSR(1, a.N,
			[]int{0, a.RowPtr[i+1] - a.RowPtr[i]},
			a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]],
			a.Val[a.RowPtr[i]:a.RowPtr[i+1]])
		if err != nil {
			t.Fatal(err)
		}
		row.MulSparseVec(idx, val, one)
		perRow[i] = one[0]
	}

	for _, w := range []int{1, 3, 8} {
		batched := make([]float64, a.M)
		a.WithKernelWorkers(w).(*CSR).MulSparseVec(idx, val, batched)
		for i := range perRow {
			if batched[i] != perRow[i] {
				t.Fatalf("w=%d row %d: batched %v != per-row %v", w, i, batched[i], perRow[i])
			}
		}
	}
}

// TestMulSparseVecEmptySupport: an all-zero model scores everything 0.
func TestMulSparseVecEmptySupport(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCSR(rng, 10, 8, 0.4)
	y := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	a.MulSparseVec(nil, nil, y)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("row %d: %v, want 0", i, v)
		}
	}
}

// TestMulSparseVecPanics pins the kernel's validation: mismatched
// output length and malformed model supports must panic rather than
// read out of bounds.
func TestMulSparseVecPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 4, 6, 0.5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	y := make([]float64, 4)
	mustPanic("short y", func() { a.MulSparseVec([]int{0}, []float64{1}, y[:2]) })
	mustPanic("len mismatch", func() { a.MulSparseVec([]int{0, 1}, []float64{1}, y) })
	mustPanic("out of range", func() { a.MulSparseVec([]int{6}, []float64{1}, y) })
	mustPanic("out of order", func() { a.MulSparseVec([]int{3, 1}, []float64{1, 2}, y) })
	mustPanic("duplicate", func() { a.MulSparseVec([]int{2, 2}, []float64{1, 2}, y) })
}
