package stream_test

import (
	"fmt"
	"math"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mat"
	"saco/internal/testmatrix"
)

// poisonLower overwrites every strict-lower entry of g with a NaN of its
// own payload: a solver that reads one computes with a NaN, and its
// iterate no longer matches the undecorated run.
func poisonLower(g *mat.Dense) {
	for i := 0; i < g.R; i++ {
		for j := 0; j < i; j++ {
			g.Data[i*g.C+j] = math.Float64frombits(0x7ff8_0000_0000_0001 + uint64(i*g.C+j))
		}
	}
}

// kernelWorkers is the capability core's multicore backend looks for;
// the decorators forward it so the multicore cells run parallel kernels
// under the poison too.
type kernelWorkers interface{ WithKernelWorkers(w int) any }

// atomicCols are the extra kernels core's async backend needs; a
// decorator embeds them when the matrix has them.
type atomicCols interface {
	core.ColMatrix
	ColTMulVecAtomic(cols []int, v *mat.AtomicVec, dst []float64)
	ColMulAddAtomic(cols []int, coef []float64, v *mat.AtomicVec)
}

type poisonCols struct{ core.ColMatrix }

func (p poisonCols) ColGram(cols []int, dst *mat.Dense) {
	p.ColMatrix.ColGram(cols, dst)
	poisonLower(dst)
}

func (p poisonCols) WithKernelWorkers(w int) any {
	if kp, ok := p.ColMatrix.(kernelWorkers); ok {
		return poisonColsOf(kp.WithKernelWorkers(w).(core.ColMatrix))
	}
	return p
}

type poisonAtomicCols struct{ atomicCols }

func (p poisonAtomicCols) ColGram(cols []int, dst *mat.Dense) {
	p.atomicCols.ColGram(cols, dst)
	poisonLower(dst)
}

func (p poisonAtomicCols) WithKernelWorkers(w int) any {
	return poisonCols{p.atomicCols}.WithKernelWorkers(w)
}

func poisonColsOf(a core.ColMatrix) core.ColMatrix {
	if at, ok := a.(atomicCols); ok {
		return poisonAtomicCols{at}
	}
	return poisonCols{a}
}

type poisonRows struct{ core.RowMatrix }

func (p poisonRows) RowGram(rows []int, dst *mat.Dense) {
	p.RowMatrix.RowGram(rows, dst)
	poisonLower(dst)
}

func (p poisonRows) WithKernelWorkers(w int) any {
	if kp, ok := p.RowMatrix.(kernelWorkers); ok {
		return poisonRowsOf(kp.WithKernelWorkers(w).(core.RowMatrix))
	}
	return p
}

func poisonRowsOf(a core.RowMatrix) core.RowMatrix { return poisonRows{a} }

// TestSolversReadUpperTriangleOnly holds the one-triangle convention on
// the solver side: a matrix whose every Gram comes back with a NaN of
// its own payload in each strict-lower entry must give the same X, bit
// for bit, as the matrix itself — so no solver reads below the
// diagonal. The cells are every dataset form (in-memory sparse, the
// same with every entry stored, streamed CSR and CSC) under the sequential backend, multicore
// at 2 and 3 workers, and the async Lasso with one worker where the
// form has atomic kernels (the async SVM cells assert its refusal); the
// solves are Lasso plain and accelerated at s ∈ {1, 16}, SVM-L1 and
// SVM-L2. The simulated cluster reduces the
// Gram itself, so its cells poison the reduced Gram inside package dist
// (TestDistReadsUpperTriangleOnly).
func TestSolversReadUpperTriangleOnly(t *testing.T) {
	reg := datagen.Regression("triu-lasso", 21, 256, 64, 0.12, 8, 0.1)
	cls := datagen.Classification("triu-svm", 23, 256, 48, 0.15, 0.05)
	execs := []struct {
		name string
		exec core.Exec
	}{
		{"sequential", core.Exec{}},
		{"multicore-2", core.Exec{Backend: core.BackendMulticore, Workers: 2}},
		{"multicore-3", core.Exec{Backend: core.BackendMulticore, Workers: 3}},
	}
	async := core.Exec{Backend: core.BackendAsync, Workers: 1}

	for _, f := range testmatrix.Forms(t, reg.AsCSR(), reg.B, 32) {
		lasso := func(name string, o core.LassoOptions) {
			t.Run(f.Name+"/"+name, func(t *testing.T) {
				want, err := core.Lasso(f.Col, reg.B, o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Lasso(poisonColsOf(f.Col), reg.B, o)
				if err != nil {
					t.Fatal(err)
				}
				testmatrix.SameFloats(t, "X", got.X, want.X)
			})
		}
		for _, accel := range []bool{false, true} {
			for _, s := range []int{1, 16} {
				for _, ex := range execs {
					o := core.LassoOptions{Lambda: 0.4, Iters: 128, S: s, BlockSize: 4, Seed: 42, Accelerated: accel, Exec: ex.exec}
					lasso(fmt.Sprintf("lasso-accel=%t-s=%d/%s", accel, s, ex.name), o)
				}
			}
		}
		if f.Async {
			lasso("lasso/async-1", core.LassoOptions{Lambda: 0.4, Iters: 128, BlockSize: 4, Seed: 42, Exec: async})
		}
	}

	for _, f := range testmatrix.Forms(t, cls.AsCSR(), cls.B, 32) {
		svm := func(name string, o core.SVMOptions) {
			t.Run(f.Name+"/"+name, func(t *testing.T) {
				want, err := core.SVM(f.Row, cls.B, o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.SVM(poisonRowsOf(f.Row), cls.B, o)
				if err != nil {
					t.Fatal(err)
				}
				testmatrix.SameFloats(t, "X", got.X, want.X)
				testmatrix.SameFloats(t, "Alpha", got.Alpha, want.Alpha)
			})
		}
		for _, loss := range []core.SVMLoss{core.SVML1, core.SVML2} {
			for _, ex := range execs {
				svm(fmt.Sprintf("%v/%s", loss, ex.name), core.SVMOptions{Lambda: 1, Loss: loss, Iters: 256, S: 16, Seed: 9, Exec: ex.exec})
			}
			if f.Async {
				t.Run(fmt.Sprintf("%s/%v/async-1", f.Name, loss), func(t *testing.T) {
					if _, err := core.SVM(poisonRowsOf(f.Row), cls.B, core.SVMOptions{Lambda: 1, Loss: loss, Iters: 256, Seed: 9, Exec: async}); err == nil {
						t.Fatal("async SVM ran; async runs only the plain Lasso")
					}
				})
			}
		}
	}
}
