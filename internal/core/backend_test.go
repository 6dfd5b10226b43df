package core

import (
	"fmt"
	"testing"

	"saco/internal/datagen"
	"saco/internal/sparse"
)

// backendWorkerCounts is the equivalence grid of the acceptance
// criterion: the multicore backend must reproduce the sequential
// iterates bitwise at every width.
var backendWorkerCounts = []int{1, 2, 8}

func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: multicore %v != sequential %v", name, i, got[i], want[i])
		}
	}
}

// TestLassoBackendEquivalence solves each Lasso variant sequentially and
// with the multicore backend at several widths, asserting bitwise equal
// solutions, objectives and tracked histories — the shared-memory
// analogue of the paper's SA-equals-classical iterate claim.
func TestLassoBackendEquivalence(t *testing.T) {
	sparseData := datagen.Regression("beq", 5, 400, 160, 0.15, 10, 0.05)
	// Density 1: every column is a full operand of the Gram.
	denseData := datagen.DenseRegression("beq-dense", 5, 400, 160, 10, 0.05)
	cases := []struct {
		name string
		data *datagen.Dataset
		opt  LassoOptions
	}{
		{"cd-classic-csc", sparseData, LassoOptions{Lambda: 0.3, Iters: 400, Seed: 7, TrackEvery: 50}},
		{"bcd-sa-csc", sparseData, LassoOptions{Lambda: 0.3, BlockSize: 8, Iters: 400, S: 16, Seed: 7, TrackEvery: 50}},
		{"accbcd-sa-csc", sparseData, LassoOptions{Lambda: 0.3, BlockSize: 8, Iters: 400, S: 16, Accelerated: true, Seed: 7, TrackEvery: 50}},
		{"accbcd-sa-dense", denseData, LassoOptions{Lambda: 0.3, BlockSize: 8, Iters: 300, S: 8, Accelerated: true, Seed: 9, TrackEvery: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.data.Cols(), tc.data.B
			ref, err := Lasso(a, b, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range backendWorkerCounts {
				opt := tc.opt
				opt.Exec = Exec{Backend: BackendMulticore, Workers: w}
				got, err := Lasso(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameFloats(t, fmt.Sprintf("workers=%d X", w), got.X, ref.X)
				if got.Objective != ref.Objective {
					t.Fatalf("workers=%d: objective %v != %v", w, got.Objective, ref.Objective)
				}
				if len(got.History) != len(ref.History) {
					t.Fatalf("workers=%d: history length %d != %d", w, len(got.History), len(ref.History))
				}
				for i := range got.History {
					if got.History[i] != ref.History[i] {
						t.Fatalf("workers=%d: history[%d] %+v != %+v", w, i, got.History[i], ref.History[i])
					}
				}
			}
		})
	}
}

// TestSVMBackendEquivalence is the dual-solver counterpart: gaps, duals
// and primal vectors must agree bitwise across worker counts.
func TestSVMBackendEquivalence(t *testing.T) {
	data := datagen.Classification("beqs", 11, 300, 100, 0.2, 0.05)
	// Density 1: every row is a full operand of the Gram.
	denseData := datagen.DenseClassification("beqs-dense", 11, 300, 100, 0.05)
	cases := []struct {
		name string
		data *datagen.Dataset
		opt  SVMOptions
	}{
		{"svml1-classic-csr", data, SVMOptions{Lambda: 1, Iters: 2000, Seed: 3, TrackEvery: 400}},
		{"svml1-sa-csr", data, SVMOptions{Lambda: 1, Iters: 2000, S: 64, Seed: 3, TrackEvery: 400}},
		{"svml2-sa-csr", data, SVMOptions{Lambda: 1, Loss: SVML2, Iters: 2000, S: 32, Seed: 5, TrackEvery: 400}},
		{"svml1-sa-dense", denseData, SVMOptions{Lambda: 1, Iters: 1500, S: 32, Seed: 5, TrackEvery: 300}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.data.Rows(), tc.data.B
			ref, err := SVM(a, b, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range backendWorkerCounts {
				opt := tc.opt
				opt.Exec = Exec{Backend: BackendMulticore, Workers: w}
				got, err := SVM(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameFloats(t, fmt.Sprintf("workers=%d X", w), got.X, ref.X)
				sameFloats(t, fmt.Sprintf("workers=%d Alpha", w), got.Alpha, ref.Alpha)
				if got.Gap != ref.Gap || got.Primal != ref.Primal || got.Dual != ref.Dual {
					t.Fatalf("workers=%d: objectives (%v,%v,%v) != (%v,%v,%v)",
						w, got.Primal, got.Dual, got.Gap, ref.Primal, ref.Dual, ref.Gap)
				}
				for i := range got.History {
					if got.History[i] != ref.History[i] {
						t.Fatalf("workers=%d: history[%d] differs", w, i)
					}
				}
			}
		})
	}
}

// TestExecDefaults pins the knob semantics: the zero value is
// sequential, worker counts below 2 stay sequential, and matrices
// without the capability pass through unchanged.
func TestExecDefaults(t *testing.T) {
	if (Exec{}).workers() != 1 {
		t.Fatal("zero Exec must be sequential")
	}
	if (Exec{Backend: BackendMulticore, Workers: 3}).workers() != 3 {
		t.Fatal("explicit width ignored")
	}
	if w := (Exec{Backend: BackendMulticore}).workers(); w < 1 {
		t.Fatalf("default multicore width %d", w)
	}
	if BackendSequential.String() != "sequential" || BackendMulticore.String() != "multicore" {
		t.Fatal("backend names")
	}
	a := &sparse.CSC{M: 2, N: 2, ColPtr: []int{0, 0, 0}}
	pc := execCol(a, Exec{Backend: BackendMulticore, Workers: 4})
	if pc.(*sparse.CSC).KernelWorkers() != 4 {
		t.Fatal("execCol did not apply workers")
	}
	if got := execCol(a, Exec{}); got != ColMatrix(a) {
		t.Fatal("sequential exec must not wrap")
	}
}
