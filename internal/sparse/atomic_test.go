package sparse

import (
	"testing"

	"saco/internal/mat"
)

// atomicTestMatrix builds a small fixed CSR/CSC pair.
func atomicTestMatrix(t *testing.T) (*CSR, *CSC) {
	t.Helper()
	coo := NewCOO(4, 5)
	coo.Add(0, 0, 1)
	coo.Add(0, 3, 2)
	coo.Add(1, 1, -3)
	coo.Add(1, 4, 0.5)
	coo.Add(2, 0, 4)
	coo.Add(2, 2, -1)
	coo.Add(3, 3, 2.5)
	csr := coo.ToCSR()
	return csr, csr.ToCSC()
}

// TestAtomicKernelsMatchPlain pins the anchor property the async Lasso
// relies on: each atomic kernel, run without contention, reproduces its
// plain counterpart bit for bit (same loop order, same arithmetic).
func TestAtomicKernelsMatchPlain(t *testing.T) {
	_, csc := atomicTestMatrix(t)
	rvals := []float64{0.5, -1, 2, 0.25}

	cols := []int{0, 3, 4}
	want := make([]float64, len(cols))
	csc.ColTMulVec(cols, rvals, want)
	got := make([]float64, len(cols))
	csc.ColTMulVecAtomic(cols, mat.NewAtomicVecFrom(rvals), got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColTMulVecAtomic[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	coef := []float64{2, -0.5, 1}
	plain := append([]float64(nil), rvals...)
	csc.ColMulAdd(cols, coef, plain)
	av := mat.NewAtomicVecFrom(rvals)
	csc.ColMulAddAtomic(cols, coef, av)
	for i := range plain {
		if av.Load(i) != plain[i] {
			t.Fatalf("ColMulAddAtomic[%d] = %v, want %v", i, av.Load(i), plain[i])
		}
	}
}

// TestDenseAtomicKernelsMatchPlain is the same anchor for a matrix
// that stores every entry, its zeros explicit: without contention each
// atomic kernel replays the plain kernel bit for bit over full
// columns.
func TestDenseAtomicKernelsMatchPlain(t *testing.T) {
	csr, _ := atomicTestMatrix(t)
	dc := storeAll(csr).ToCSC()
	rvals := []float64{0.5, 0, 2, 0.25}

	cols := []int{0, 3, 4}
	want := make([]float64, len(cols))
	dc.ColTMulVec(cols, rvals, want)
	got := make([]float64, len(cols))
	dc.ColTMulVecAtomic(cols, mat.NewAtomicVecFrom(rvals), got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dense ColTMulVecAtomic[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	coef := []float64{2, -0.5, 1}
	plain := append([]float64(nil), rvals...)
	dc.ColMulAdd(cols, coef, plain)
	av := mat.NewAtomicVecFrom(rvals)
	dc.ColMulAddAtomic(cols, coef, av)
	for i := range plain {
		if av.Load(i) != plain[i] {
			t.Fatalf("dense ColMulAddAtomic[%d] = %v, want %v", i, av.Load(i), plain[i])
		}
	}
}

// TestDenseViewDensity pins the Density capability the async damping
// heuristic consults: stored entries over cells, so a matrix that
// stores every entry reports 1 whatever its zeros.
func TestDenseViewDensity(t *testing.T) {
	csr, csc := atomicTestMatrix(t) // 7 nonzeros in 4x5
	if d := csr.Density(); d != 7.0/20.0 {
		t.Fatalf("CSR.Density() = %v, want %v", d, 7.0/20.0)
	}
	if d := csc.Density(); d != 7.0/20.0 {
		t.Fatalf("CSC.Density() = %v, want %v", d, 7.0/20.0)
	}
	dense := storeAll(csr)
	if d := dense.Density(); d != 1 {
		t.Fatalf("dense CSR.Density() = %v, want 1", d)
	}
	if d := dense.ToCSC().Density(); d != 1 {
		t.Fatalf("dense CSC.Density() = %v, want 1", d)
	}
}
