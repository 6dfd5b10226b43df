package sparse

import (
	"math/rand"
	"testing"

	"saco/internal/mat"
)

func sameVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: parallel %v != sequential %v", name, i, got[i], want[i])
		}
	}
}

// TestParallelKernelsBitwiseIdentical pins the backend contract: every
// parallel kernel partitions independent outputs with unchanged
// summation order, so multicore views produce bitwise-identical results
// for any worker count.
func TestParallelKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	csr := randCSR(rng, 300, 120, 0.15)
	csc := csr.ToCSC()
	x := randVec(rng, 120)
	v := randVec(rng, 300)
	cols := rng.Perm(120)[:40]
	rows := rng.Perm(300)[:48]

	for _, w := range []int{2, 8, 32} {
		pcsr := csr.WithKernelWorkers(w).(*CSR)
		pcsc := csc.WithKernelWorkers(w).(*CSC)

		y1 := make([]float64, 300)
		y2 := make([]float64, 300)
		csr.MulVec(x, y1)
		pcsr.MulVec(x, y2)
		sameVec(t, "CSR.MulVec", y2, y1)

		d1 := make([]float64, len(rows))
		d2 := make([]float64, len(rows))
		csr.RowMulVec(rows, x, d1)
		pcsr.RowMulVec(rows, x, d2)
		sameVec(t, "CSR.RowMulVec", d2, d1)

		g1 := mat.NewDense(len(rows), len(rows))
		g2 := mat.NewDense(len(rows), len(rows))
		csr.RowGram(rows, g1)
		pcsr.RowGram(rows, g2)
		sameVec(t, "CSR.RowGram", g2.Data, g1.Data)

		c1 := make([]float64, len(cols))
		c2 := make([]float64, len(cols))
		csc.ColTMulVec(cols, v, c1)
		pcsc.ColTMulVec(cols, v, c2)
		sameVec(t, "CSC.ColTMulVec", c2, c1)

		gg1 := mat.NewDense(len(cols), len(cols))
		gg2 := mat.NewDense(len(cols), len(cols))
		csc.ColGram(cols, gg1)
		pcsc.ColGram(cols, gg2)
		sameVec(t, "CSC.ColGram", gg2.Data, gg1.Data)
	}
}

func TestDenseViewParallelKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d := mat.NewDense(200, 80)
	for i := range d.Data {
		if rng.Float64() < 0.7 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	x := randVec(rng, 80)
	v := randVec(rng, 200)
	cols := rng.Perm(80)[:24]
	rows := rng.Perm(200)[:32]
	coef := randVec(rng, len(cols))

	seqC := DenseCols{A: d}
	seqR := DenseRows{A: d}
	for _, w := range []int{2, 8} {
		parC := seqC.WithKernelWorkers(w).(DenseCols)
		parR := seqR.WithKernelWorkers(w).(DenseRows)

		c1 := make([]float64, len(cols))
		c2 := make([]float64, len(cols))
		seqC.ColTMulVec(cols, v, c1)
		parC.ColTMulVec(cols, v, c2)
		sameVec(t, "DenseCols.ColTMulVec", c2, c1)

		m1 := randVec(rng, 200)
		m2 := append([]float64(nil), m1...)
		seqC.ColMulAdd(cols, coef, m1)
		parC.ColMulAdd(cols, coef, m2)
		sameVec(t, "DenseCols.ColMulAdd", m2, m1)

		g1 := mat.NewDense(len(cols), len(cols))
		g2 := mat.NewDense(len(cols), len(cols))
		seqC.ColGram(cols, g1)
		parC.ColGram(cols, g2)
		sameVec(t, "DenseCols.ColGram", g2.Data, g1.Data)

		y1 := make([]float64, 200)
		y2 := make([]float64, 200)
		seqC.MulVec(x, y1)
		parC.MulVec(x, y2)
		sameVec(t, "DenseCols.MulVec", y2, y1)

		r1 := make([]float64, len(rows))
		r2 := make([]float64, len(rows))
		seqR.RowMulVec(rows, x, r1)
		parR.RowMulVec(rows, x, r2)
		sameVec(t, "DenseRows.RowMulVec", r2, r1)

		rg1 := mat.NewDense(len(rows), len(rows))
		rg2 := mat.NewDense(len(rows), len(rows))
		seqR.RowGram(rows, rg1)
		parR.RowGram(rows, rg2)
		sameVec(t, "DenseRows.RowGram", rg2.Data, rg1.Data)
	}
}

func TestWithKernelWorkersIsAView(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	csr := randCSR(rng, 50, 20, 0.2)
	if csr.KernelWorkers() != 1 {
		t.Fatalf("fresh CSR workers = %d, want sequential", csr.KernelWorkers())
	}
	p := csr.WithKernelWorkers(4).(*CSR)
	if p.KernelWorkers() != 4 || csr.KernelWorkers() != 1 {
		t.Fatal("WithKernelWorkers must not mutate the receiver")
	}
	if &p.Val[0] != &csr.Val[0] {
		t.Fatal("view must share storage")
	}
	if q := csr.WithKernelWorkers(0).(*CSR); q.KernelWorkers() != 1 {
		t.Fatal("w=0 must normalize to sequential")
	}
}
