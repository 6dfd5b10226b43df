package sparse

import (
	"math/rand"
	"testing"

	"saco/internal/mat"
	rt "saco/internal/runtime"
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

// TestForkingKernelsBitwise: on operands whose work the runtime's rule
// splits w ways — checked first, so every region really forks — each
// forking kernel keeps the sequential bits at widths 1 to 4. It runs
// under -short too, so the race gate covers the forked path.
func TestForkingKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	csr := randCSR(rng, 400, 300, 0.6)
	csc := csr.ToCSC()
	x, v := randVec(rng, csr.N), randVec(rng, csr.M)
	rows, cols := rng.Perm(csr.M), rng.Perm(csr.N)
	pairs := func(k int) int { return k * (k + 1) / 2 }

	y1, d1, c1 := make([]float64, csr.M), make([]float64, len(rows)), make([]float64, len(cols))
	csr.MulVec(x, y1)
	csr.RowMulVec(rows, x, d1)
	csc.ColTMulVec(cols, v, c1)
	rg1, cg1 := mat.NewDense(len(rows), len(rows)), mat.NewDense(len(cols), len(cols))
	csr.RowGram(rows, rg1)
	csc.ColGram(cols, cg1)

	for w := 1; w <= 4; w++ {
		for name, got := range map[string]int{
			"MulVec":     rt.Width(w, csr.NNZ()),
			"RowMulVec":  forkWidth(w, csr.RowPtr, rows, 0),
			"ColTMulVec": forkWidth(w, csc.ColPtr, cols, 0),
			"RowGram":    forkWidth(w, csr.RowPtr, rows, pairs(len(rows))),
			"ColGram":    forkWidth(w, csc.ColPtr, cols, pairs(len(cols))),
		} {
			if got != w {
				t.Fatalf("%s at w=%d: the work rule grants %d executors; the data must fork w ways", name, w, got)
			}
		}
		pr := csr.WithKernelWorkers(w).(*CSR)
		pc := csc.WithKernelWorkers(w).(*CSC)

		y2, d2, c2 := make([]float64, csr.M), make([]float64, len(rows)), make([]float64, len(cols))
		pr.MulVec(x, y2)
		sameVec(t, "CSR.MulVec", y2, y1)
		pr.RowMulVec(rows, x, d2)
		sameVec(t, "CSR.RowMulVec", d2, d1)
		pc.ColTMulVec(cols, v, c2)
		sameVec(t, "CSC.ColTMulVec", c2, c1)

		rg2, cg2 := mat.NewDense(len(rows), len(rows)), mat.NewDense(len(cols), len(cols))
		pr.RowGram(rows, rg2)
		sameVec(t, "CSR.RowGram", rg2.Data, rg1.Data)
		pc.ColGram(cols, cg2)
		sameVec(t, "CSC.ColGram", cg2.Data, cg1.Data)
	}
}

// TestDenseViewParallelKernelsBitwiseIdentical: the kernels of a
// matrix that stores every entry (70 % of them nonzero) — every Gram
// operand full — keep their bits on 2 and 8 workers.
func TestDenseViewParallelKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	seqR := storeAll(randCSR(rng, 200, 80, 0.7))
	seqC := seqR.ToCSC()
	x := randVec(rng, 80)
	v := randVec(rng, 200)
	cols := rng.Perm(80)[:24]
	rows := rng.Perm(200)[:32]
	coef := randVec(rng, len(cols))

	for _, w := range []int{2, 8} {
		parC := seqC.WithKernelWorkers(w).(*CSC)
		parR := seqR.WithKernelWorkers(w).(*CSR)

		c1 := make([]float64, len(cols))
		c2 := make([]float64, len(cols))
		seqC.ColTMulVec(cols, v, c1)
		parC.ColTMulVec(cols, v, c2)
		sameVec(t, "dense ColTMulVec", c2, c1)

		m1 := randVec(rng, 200)
		m2 := append([]float64(nil), m1...)
		seqC.ColMulAdd(cols, coef, m1)
		parC.ColMulAdd(cols, coef, m2)
		sameVec(t, "dense ColMulAdd", m2, m1)

		g1 := mat.NewDense(len(cols), len(cols))
		g2 := mat.NewDense(len(cols), len(cols))
		seqC.ColGram(cols, g1)
		parC.ColGram(cols, g2)
		sameVec(t, "dense ColGram", g2.Data, g1.Data)

		y1 := make([]float64, 200)
		y2 := make([]float64, 200)
		seqR.MulVec(x, y1)
		parR.MulVec(x, y2)
		sameVec(t, "dense MulVec", y2, y1)

		r1 := make([]float64, len(rows))
		r2 := make([]float64, len(rows))
		seqR.RowMulVec(rows, x, r1)
		parR.RowMulVec(rows, x, r2)
		sameVec(t, "dense RowMulVec", r2, r1)

		rg1 := mat.NewDense(len(rows), len(rows))
		rg2 := mat.NewDense(len(rows), len(rows))
		seqR.RowGram(rows, rg1)
		parR.RowGram(rows, rg2)
		sameVec(t, "dense RowGram", rg2.Data, rg1.Data)
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
