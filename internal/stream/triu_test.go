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

type poisonCols struct{ core.ColMatrix }

func (p poisonCols) ColGram(cols []int, dst *mat.Dense) {
	p.ColMatrix.ColGram(cols, dst)
	poisonLower(dst)
}

func (p poisonCols) WithKernelWorkers(w int) any {
	if kp, ok := p.ColMatrix.(kernelWorkers); ok {
		return poisonCols{kp.WithKernelWorkers(w).(core.ColMatrix)}
	}
	return p
}

type poisonRows struct{ core.RowMatrix }

func (p poisonRows) RowGram(rows []int, dst *mat.Dense) {
	p.RowMatrix.RowGram(rows, dst)
	poisonLower(dst)
}

func (p poisonRows) WithKernelWorkers(w int) any {
	if kp, ok := p.RowMatrix.(kernelWorkers); ok {
		return poisonRows{kp.WithKernelWorkers(w).(core.RowMatrix)}
	}
	return p
}

// TestSolversReadUpperTriangleOnly holds the one-triangle convention on
// the solver side: a matrix whose every Gram comes back with a NaN of
// its own payload in each strict-lower entry must give the same X, bit
// for bit, as the matrix itself — so no solver reads below the
// diagonal. The cells are every dataset form (in-memory sparse, the
// same with every entry stored, streamed CSR and CSC) under the
// sequential backend and multicore at 2 and 3 workers; the solves are
// Lasso plain and accelerated at s ∈ {1, 16}, SVM-L1 and SVM-L2. The
// simulated cluster reduces the Gram itself, so its cells poison the
// reduced Gram inside package dist (TestDistReadsUpperTriangleOnly).
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

	for _, f := range testmatrix.Forms(t, reg.AsCSR(), reg.B, 32) {
		lasso := func(name string, o core.LassoOptions) {
			t.Run(f.Name+"/"+name, func(t *testing.T) {
				want, err := core.Lasso(f.Col, reg.B, o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.Lasso(poisonCols{f.Col}, reg.B, o)
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
	}

	for _, f := range testmatrix.Forms(t, cls.AsCSR(), cls.B, 32) {
		svm := func(name string, o core.SVMOptions) {
			t.Run(f.Name+"/"+name, func(t *testing.T) {
				want, err := core.SVM(f.Row, cls.B, o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.SVM(poisonRows{f.Row}, cls.B, o)
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
		}
	}
}
