package core

import (
	"runtime"
	"testing"

	"saco/internal/datagen"
)

// asyncExec builds the async knob at width w. Relative comparisons use
// the package test helper relDiff (lasso_test.go).
func asyncExec(w int) Exec { return Exec{Backend: BackendAsync, Workers: w} }

// TestLassoAsyncOneWorkerBitwise is the anchor of the async backend: a
// single async worker replays the sequential plain-CD/BCD arithmetic bit
// for bit (worker 0's stream is the sequential stream and every atomic
// kernel mirrors its plain counterpart's loop order), so the only thing
// multi-worker runs add is benign races.
func TestLassoAsyncOneWorkerBitwise(t *testing.T) {
	data := datagen.Regression("async-anchor", 3, 300, 120, 0.2, 10, 0.05)
	a := data.AsCSR().ToCSC()
	for _, mu := range []int{1, 4} {
		opt := LassoOptions{Lambda: 0.3, BlockSize: mu, Iters: 500, Seed: 7}
		ref, err := Lasso(a, data.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Exec = asyncExec(1)
		got, err := Lasso(a, data.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "X", got.X, ref.X)
		if got.Objective != ref.Objective {
			t.Fatalf("mu=%d: objective %v != %v", mu, got.Objective, ref.Objective)
		}
	}
}

// TestSVMAsyncOneWorkerBitwise is the dual-CD anchor: with one worker
// the CAS always succeeds first try and the update replays Alg. 3.
func TestSVMAsyncOneWorkerBitwise(t *testing.T) {
	data := datagen.Classification("async-anchor-svm", 5, 250, 80, 0.2, 0.05)
	a := data.AsCSR()
	for _, loss := range []SVMLoss{SVML1, SVML2} {
		opt := SVMOptions{Lambda: 1, Loss: loss, Iters: 1500, Seed: 3}
		ref, err := SVM(a, data.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Exec = asyncExec(1)
		got, err := SVM(a, data.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "X", got.X, ref.X)
		sameFloats(t, "Alpha", got.Alpha, ref.Alpha)
		if got.Gap != ref.Gap {
			t.Fatalf("loss=%v: gap %v != %v", loss, got.Gap, ref.Gap)
		}
	}
}

// TestLassoAsyncConverges is the acceptance criterion: on the short
// Lasso preset the async backend's final objective lands within 1e-6
// relative of the sequential backend's at every width. Both runs get
// enough iterations to reach the optimum, where the comparison is
// meaningful — async runs take a different path but the same
// destination.
func TestLassoAsyncConverges(t *testing.T) {
	data := datagen.Regression("async-conv", 11, 400, 100, 0.25, 8, 0.05)
	a := data.AsCSR().ToCSC()
	lambda := 0.2 * LambdaMaxL1(a, data.B)
	iters := 30000
	if testing.Short() {
		iters = 15000
	}
	seq, err := Lasso(a, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := Lasso(a, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1, Exec: asyncExec(w)})
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(got.Objective, seq.Objective); d > 1e-6 {
			t.Fatalf("workers=%d: async objective %.12e vs sequential %.12e (rel %.3e)",
				w, got.Objective, seq.Objective, d)
		}
	}
}

// TestLassoAsyncBlockConverges exercises the BCD path (µ > 1) and the
// elastic-net regularizer under async execution.
func TestLassoAsyncBlockConverges(t *testing.T) {
	data := datagen.Regression("async-bcd", 13, 350, 80, 0.3, 8, 0.05)
	a := data.AsCSR().ToCSC()
	lambda := 0.2 * LambdaMaxL1(a, data.B)
	iters := 8000
	opt := LassoOptions{
		Reg: ElasticNet{Lambda: lambda, Alpha: 0.9}, BlockSize: 4,
		Iters: iters, Seed: 5,
	}
	seq, err := Lasso(a, data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Exec = asyncExec(4)
	got, err := Lasso(a, data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Objective, seq.Objective); d > 1e-6 {
		t.Fatalf("async BCD objective %.12e vs sequential %.12e (rel %.3e)",
			got.Objective, seq.Objective, d)
	}
}

// TestSVMAsyncConverges is the SVM half of the acceptance criterion:
// async dual CD reaches the sequential optimum within 1e-6 relative on
// the short SVM preset. SVM-L2's strongly convex dual gives the tight
// anchor; hinge loss is checked at the same tolerance with more
// iterations.
func TestSVMAsyncConverges(t *testing.T) {
	data := datagen.Classification("async-svm", 17, 250, 60, 0.3, 0.1)
	a := data.AsCSR()
	for _, tc := range []struct {
		name  string
		loss  SVMLoss
		iters int
	}{
		{"l2", SVML2, 400000},
		{"l1", SVML1, 3000000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iters := tc.iters
			if testing.Short() {
				iters /= 2
			}
			seq, err := SVM(a, data.B, SVMOptions{Lambda: 1, Loss: tc.loss, Iters: iters, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4} {
				got, err := SVM(a, data.B, SVMOptions{Lambda: 1, Loss: tc.loss, Iters: iters, Seed: 9, Exec: asyncExec(w)})
				if err != nil {
					t.Fatal(err)
				}
				if d := relDiff(got.Primal, seq.Primal); d > 1e-6 {
					t.Fatalf("workers=%d: async primal %.12e vs sequential %.12e (rel %.3e)",
						w, got.Primal, seq.Primal, d)
				}
				if got.Gap < -1e-9 || got.Alpha == nil { // tiny negative gap = roundoff at optimality
					t.Fatalf("workers=%d: malformed result (gap=%v)", w, got.Gap)
				}
			}
		})
	}
}

// colOnly and rowOnly hide everything but the plain access interface,
// modelling a matrix type without atomic kernels.
type colOnly struct{ ColMatrix }
type rowOnly struct{ RowMatrix }

// TestAsyncRejectsUnsupported pins the error surface: acceleration has
// no async analogue, and matrices without atomic kernels must be
// rejected with a clear message rather than silently run sequential.
// (Dense data is a CSC/CSR like any other and runs — see
// TestAsyncDenseViews.)
func TestAsyncRejectsUnsupported(t *testing.T) {
	data := datagen.Regression("async-rej", 29, 60, 30, 0.3, 5, 0.05)
	csc := data.AsCSR().ToCSC()
	if _, err := Lasso(csc, data.B, LassoOptions{
		Lambda: 0.1, Iters: 10, Accelerated: true, Exec: asyncExec(2),
	}); err == nil {
		t.Fatal("accelerated async Lasso must error")
	}
	if _, err := Lasso(colOnly{csc}, data.B, LassoOptions{
		Lambda: 0.1, Iters: 10, Exec: asyncExec(2),
	}); err == nil {
		t.Fatal("async Lasso on a matrix without atomic kernels must error")
	}
	bb := make([]float64, 60)
	copy(bb, data.B)
	if _, err := SVM(rowOnly{data.AsCSR()}, bb, SVMOptions{
		Lambda: 1, Iters: 10, Exec: asyncExec(2),
	}); err == nil {
		t.Fatal("async SVM on a matrix without atomic kernels must error")
	}
}

// TestAsyncDenseViewsOneWorkerBitwise extends the single-worker anchor
// to dense data, every entry stored: a 1-worker async solve over its
// columns or rows replays the sequential solve bit for bit.
func TestAsyncDenseViewsOneWorkerBitwise(t *testing.T) {
	data := datagen.DenseRegression("async-dense", 31, 120, 40, 6, 0.05)
	dc := data.Cols()
	opt := LassoOptions{Lambda: 0.3, BlockSize: 2, Iters: 400, Seed: 7}
	ref, err := Lasso(dc, data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Exec = asyncExec(1)
	got, err := Lasso(dc, data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "dense Lasso X", got.X, ref.X)
	if got.Objective != ref.Objective {
		t.Fatalf("objective %v != %v", got.Objective, ref.Objective)
	}

	cdata := datagen.DenseClassification("async-dense-svm", 37, 100, 30, 0.05)
	dr := cdata.Rows()
	sopt := SVMOptions{Lambda: 1, Loss: SVML2, Iters: 800, Seed: 3}
	sref, err := SVM(dr, cdata.B, sopt)
	if err != nil {
		t.Fatal(err)
	}
	sopt.Exec = asyncExec(1)
	sgot, err := SVM(dr, cdata.B, sopt)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "dense SVM X", sgot.X, sref.X)
	sameFloats(t, "dense SVM Alpha", sgot.Alpha, sref.Alpha)
}

// TestAsyncDenseViewsConverge: multi-worker async over dense data
// reaches the sequential optimum.
func TestAsyncDenseViewsConverge(t *testing.T) {
	data := datagen.DenseRegression("async-dense-conv", 41, 200, 50, 6, 0.05)
	dc := data.Cols()
	lambda := 0.2 * LambdaMaxL1(dc, data.B)
	iters := 20000
	if testing.Short() {
		iters = 10000
	}
	seq, err := Lasso(dc, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Lasso(dc, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1, Exec: asyncExec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Objective, seq.Objective); d > 1e-6 {
		t.Fatalf("dense async objective %.12e vs sequential %.12e (rel %.3e)",
			got.Objective, seq.Objective, d)
	}
}

// TestAsyncDamping pins the collision-rate step damping: exact 1 up to
// the grace width (the small-worker HOGWILD regime the other async
// tests pin must stay undamped, and the 1-worker bitwise anchor depends
// on it) and for density-unknown matrices, monotone non-increasing in
// workers beyond the grace, and floored at 1/2.
func TestAsyncDamping(t *testing.T) {
	for _, w := range []int{1, 2, asyncDampGrace} {
		if d := asyncDamping(w, 8, 0.9); d != 1 {
			t.Fatalf("damping at %d workers = %v, want exactly 1 (grace %d)", w, d, asyncDampGrace)
		}
	}
	if d := asyncDamping(64, 4, 0); d != 1 {
		t.Fatalf("damping at unknown density = %v, want exactly 1", d)
	}
	if d := asyncDamping(asyncDampGrace+1, 1, 0.5); d >= 1 || d < 0.5 {
		t.Fatalf("damping just past grace = %v, want in [0.5, 1)", d)
	}
	prev := 1.0
	for _, w := range []int{9, 16, 64, 256} {
		d := asyncDamping(w, 1, 0.01)
		if d > prev || d < 0.5 {
			t.Fatalf("damping(%d) = %v (prev %v): must be non-increasing and >= 1/2", w, d, prev)
		}
		prev = d
	}
	if d := asyncDamping(1024, 64, 1); d != 0.5 {
		t.Fatalf("saturated damping = %v, want 0.5", d)
	}
	// The solvers surface the factor: a wide solve on a known-density
	// matrix must report damp < 1, a 1-worker solve exactly 1.
	data := datagen.Regression("async-damp", 43, 80, 30, 0.3, 5, 0.05)
	csc := data.AsCSR().ToCSC()
	st1, err := newAsyncLasso(csc, data.B, 1, LassoOptions{Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if st1.damp != 1 {
		t.Fatalf("1-worker damp = %v", st1.damp)
	}
	st2, err := newAsyncLasso(csc, data.B, 4*asyncDampGrace, LassoOptions{Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d := st2.damp; d >= 1 || d < 0.5 {
		t.Fatalf("wide damp = %v, want in [0.5, 1)", d)
	}
}

// TestAsyncHighWorkerCount is the oversubscription satellite: at
// workers = 4×GOMAXPROCS (floored past the damping grace so the damped
// path always runs) the goroutines far outnumber cores, so updates are
// maximally stale — the regime the collision damping is for. Both async
// solvers must still land on the sequential optimum.
func TestAsyncHighWorkerCount(t *testing.T) {
	w := 4 * runtime.GOMAXPROCS(0)
	if w < 2*asyncDampGrace {
		w = 2 * asyncDampGrace
	}
	data := datagen.Regression("async-hi", 47, 300, 80, 0.2, 8, 0.05)
	a := data.AsCSR().ToCSC()
	lambda := 0.2 * LambdaMaxL1(a, data.B)
	iters := 40000
	if testing.Short() {
		iters = 20000
	}
	seq, err := Lasso(a, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Lasso(a, data.B, LassoOptions{Lambda: lambda, Iters: iters, Seed: 1, Exec: asyncExec(w)})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.Objective, seq.Objective); d > 1e-6 {
		t.Fatalf("workers=%d: async objective %.12e vs sequential %.12e (rel %.3e)",
			w, got.Objective, seq.Objective, d)
	}

	cdata := datagen.Classification("async-hi-svm", 53, 250, 60, 0.3, 0.1)
	ar := cdata.AsCSR()
	siters := 400000
	if testing.Short() {
		siters = 200000
	}
	sseq, err := SVM(ar, cdata.B, SVMOptions{Lambda: 1, Loss: SVML2, Iters: siters, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := SVM(ar, cdata.B, SVMOptions{Lambda: 1, Loss: SVML2, Iters: siters, Seed: 9, Exec: asyncExec(w)})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(sgot.Primal, sseq.Primal); d > 1e-6 {
		t.Fatalf("workers=%d: async SVM primal %.12e vs sequential %.12e (rel %.3e)",
			w, sgot.Primal, sseq.Primal, d)
	}
}

// TestAsyncLassoStepperMatchesSolver pins the worker steppers the async
// backend runs: manually stepping a 1-worker asyncLasso / asyncSVM for
// the full budget reproduces the sequential solver bit for bit, and the
// snapshots expose the same state.
func TestAsyncLassoStepperMatchesSolver(t *testing.T) {
	data := datagen.Regression("async-step", 59, 150, 60, 0.25, 6, 0.05)
	a := data.AsCSR().ToCSC()
	opt := LassoOptions{Lambda: 0.3, Iters: 600, Seed: 7}
	ref, err := Lasso(a, data.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newAsyncLasso(a, data.B, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	wk := st.Worker(0)
	for h := 0; h < opt.Iters; h++ {
		wk.Step()
	}
	sameFloats(t, "stepped X", st.SnapshotX(nil), ref.X)
	if obj := st.Objective(); obj != ref.Objective {
		t.Fatalf("stepped objective %v != %v", obj, ref.Objective)
	}

	cdata := datagen.Classification("async-step-svm", 61, 120, 40, 0.3, 0.05)
	sopt := SVMOptions{Lambda: 1, Loss: SVML2, Iters: 900, Seed: 5}
	sref, err := SVM(cdata.AsCSR(), cdata.B, sopt)
	if err != nil {
		t.Fatal(err)
	}
	sst, err := newAsyncSVM(cdata.AsCSR(), cdata.B, 1, sopt)
	if err != nil {
		t.Fatal(err)
	}
	swk := sst.Worker(0)
	for h := 0; h < sopt.Iters; h++ {
		swk.Step()
	}
	x := sst.SnapshotX(nil)
	alpha := sst.SnapshotAlpha(nil)
	sameFloats(t, "stepped SVM X", x, sref.X)
	sameFloats(t, "stepped SVM Alpha", alpha, sref.Alpha)
	p, _, _ := sst.ObjectivesAt(x, alpha)
	if p != sref.Primal {
		t.Fatalf("stepped primal %v != %v", p, sref.Primal)
	}
}

// TestBackendAsyncString pins the knob naming used by flags and logs.
func TestBackendAsyncString(t *testing.T) {
	if BackendAsync.String() != "async" {
		t.Fatalf("BackendAsync.String() = %q", BackendAsync.String())
	}
	if (Exec{Backend: BackendAsync, Workers: 3}).asyncWorkers() != 3 {
		t.Fatal("explicit async width ignored")
	}
	if (Exec{Backend: BackendAsync}).workers() != 1 {
		t.Fatal("async solves must run sequential kernels per worker")
	}
	if w := (Exec{Backend: BackendAsync}).asyncWorkers(); w < 1 {
		t.Fatalf("default async width %d", w)
	}
}
