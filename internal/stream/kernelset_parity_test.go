// Kernel-set dimension of the determinism matrix: every internal/simd
// dispatch set must reproduce the scalar-set solver trajectories
// exactly, sequential and multicore, Lasso and SVM.
package stream_test

import (
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/testmatrix"
)

func TestParityKernelSetsLasso(t *testing.T) {
	d := datagen.Regression("kernelset-lasso", 33, 256, 64, 0.12, 8, 0.1)
	a := d.AsCSR()
	opt := lassoOpts()

	var ref *core.LassoResult
	t.Run("scalar-reference", func(t *testing.T) {
		testmatrix.WithKernelSet(t, "scalar")
		var err error
		ref, err = core.Lasso(a.ToCSC(), d.B, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if ref == nil {
		t.Fatal("no scalar reference")
	}

	for _, ks := range testmatrix.KernelSets() {
		t.Run(ks, func(t *testing.T) {
			testmatrix.WithKernelSet(t, ks)
			seq, err := core.Lasso(a.ToCSC(), d.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertLassoBitwise(t, seq, ref)

			o := opt
			o.Exec = core.Exec{Backend: core.BackendMulticore, Workers: 3}
			mc, err := core.Lasso(a.ToCSC(), d.B, o)
			if err != nil {
				t.Fatal(err)
			}
			assertLassoBitwise(t, mc, ref)
		})
	}

}

func TestParityKernelSetsSVM(t *testing.T) {
	d := datagen.Classification("kernelset-svm", 57, 192, 48, 0.15, 0.1)
	a := d.AsCSR()
	opt := svmOpts()

	var ref *core.SVMResult
	t.Run("scalar-reference", func(t *testing.T) {
		testmatrix.WithKernelSet(t, "scalar")
		var err error
		ref, err = core.SVM(a, d.B, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if ref == nil {
		t.Fatal("no scalar reference")
	}

	for _, ks := range testmatrix.KernelSets() {
		t.Run(ks, func(t *testing.T) {
			testmatrix.WithKernelSet(t, ks)
			seq, err := core.SVM(a, d.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSVMBitwise(t, seq, ref)

			o := opt
			o.Exec = core.Exec{Backend: core.BackendMulticore, Workers: 3}
			mc, err := core.SVM(a, d.B, o)
			if err != nil {
				t.Fatal(err)
			}
			assertSVMBitwise(t, mc, ref)
		})
	}

}
