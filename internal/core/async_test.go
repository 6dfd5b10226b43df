package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"saco/internal/datagen"
)

// asyncExec builds the async knob at width w. Relative comparisons use
// the package test helper relDiff (lasso_test.go).
func asyncExec(w int) Exec { return Exec{Backend: BackendAsync, Workers: w} }

// TestLassoAsyncOneWorkerBitwise is the anchor of the async backend: a
// single async worker replays the sequential plain-CD/BCD arithmetic bit
// for bit (worker 0's stream is the sequential stream, both take the one
// block step, and every atomic kernel mirrors its plain counterpart's
// loop order), so the only thing multi-worker runs add is benign races.
// Above λmax and at 0.1·λmax the warm start is −0 outside every fifth
// coordinate, so the fixed-block rule skips blocks whose −0 entries only
// the scatter of their +0 Δ turns into +0: X is compared by its bits.
func TestLassoAsyncOneWorkerBitwise(t *testing.T) {
	data := datagen.Regression("async-anchor", 3, 300, 120, 0.2, 10, 0.05)
	a := data.AsCSR().ToCSC()
	lmax := LambdaMaxL1(a, data.B)
	x0 := make([]float64, 120)
	for i := range x0 {
		x0[i] = math.Copysign(0, -1)
		if i%5 == 0 {
			x0[i] = 0.01
		}
	}
	for _, c := range []struct {
		lambda float64
		x0     []float64
	}{{0.3, nil}, {2 * lmax, x0}, {0.1 * lmax, x0}} {
		for _, mu := range []int{1, 4} {
			opt := LassoOptions{Lambda: c.lambda, BlockSize: mu, Iters: 500, Seed: 7, X0: c.x0}
			ref, err := Lasso(a, data.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Exec = asyncExec(1)
			got, err := Lasso(a, data.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.X {
				if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("λ=%v mu=%d: X[%d] async %v != sequential %v", c.lambda, mu, i, got.X[i], ref.X[i])
				}
			}
			if got.Objective != ref.Objective {
				t.Fatalf("λ=%v mu=%d: objective %v != %v", c.lambda, mu, got.Objective, ref.Objective)
			}
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

// colOnly hides everything but the plain access interface, modelling a
// matrix type without atomic kernels.
type colOnly struct{ ColMatrix }

// TestAsyncRejectsUnsupported pins the error surface: acceleration has
// no async analogue, matrices without atomic kernels must be rejected
// with a clear message, and the SVM has no async solver at all — none
// of them may silently run sequential. (Dense data is a CSC like any
// other and runs — see TestAsyncDenseViews.)
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
	res, err := SVM(data.AsCSR(), data.B, SVMOptions{Lambda: 1, Iters: 10, Exec: asyncExec(2)})
	if err == nil || res != nil {
		t.Fatal("async SVM must error, not run sequentially")
	}
	if !strings.Contains(err.Error(), "only the plain Lasso") {
		t.Fatalf("async SVM error %q does not say what async runs", err)
	}
}

// TestAsyncDenseViewsOneWorkerBitwise extends the single-worker anchor
// to dense data, every entry stored: a 1-worker async solve over its
// columns replays the sequential solve bit for bit.
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
	// The factor the solver computes, asyncDamping(w, µ, densityOf(a)):
	// a CSC reports its density, so a wide solve is damped below 1 and a
	// 1-worker solve is exactly 1.
	data := datagen.Regression("async-damp", 43, 80, 30, 0.3, 5, 0.05)
	f := densityOf(data.AsCSR().ToCSC())
	if d := asyncDamping(1, 1, f); d != 1 {
		t.Fatalf("1-worker damp = %v", d)
	}
	if d := asyncDamping(4*asyncDampGrace, 1, f); d >= 1 || d < 0.5 {
		t.Fatalf("wide damp = %v, want in [0.5, 1)", d)
	}
}

// TestAsyncHighWorkerCount is the oversubscription satellite: at
// workers = 4×GOMAXPROCS (floored past the damping grace so the damped
// path always runs) the goroutines far outnumber cores, so updates are
// maximally stale — the regime the collision damping is for. The async
// Lasso must still land on the sequential optimum.
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
