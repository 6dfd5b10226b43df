package dist

import (
	"math"
	"slices"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mpi"
)

func lassoProblem(t *testing.T) (*datagen.Dataset, float64) {
	t.Helper()
	d := datagen.Regression("dist", 3, 240, 120, 0.12, 8, 0.05)
	lambda := 0.1 * core.LambdaMaxL1(d.AsCSR().ToCSC(), d.B)
	return d, lambda
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1e-300, math.Abs(a))
}

func TestLassoClassicVsSA(t *testing.T) {
	d, lambda := lassoProblem(t)
	for _, acc := range []bool{false, true} {
		base := core.LassoOptions{Lambda: lambda, BlockSize: 4, Iters: 300, Accelerated: acc, Seed: 5}
		cl := Options{P: 4, Machine: mpi.CrayXC30()}
		classic, err := Lasso(d.AsCSR(), d.B, base, cl)
		if err != nil {
			t.Fatal(err)
		}
		sa := base
		sa.S = 25
		saRes, err := Lasso(d.AsCSR(), d.B, sa, cl)
		if err != nil {
			t.Fatal(err)
		}
		if r := relDiff(classic.Objective, saRes.Objective); r > 1e-8 {
			t.Fatalf("acc=%v: SA objective %v != classic %v (rel %v)", acc, saRes.Objective, classic.Objective, r)
		}
		if saRes.Stats.TotalMsgs() >= classic.Stats.TotalMsgs() {
			t.Fatalf("acc=%v: SA msgs %d not below classic %d", acc, saRes.Stats.TotalMsgs(), classic.Stats.TotalMsgs())
		}
		if saRes.ModeledSeconds() <= 0 || classic.ModeledSeconds() <= 0 {
			t.Fatalf("acc=%v: non-positive modeled time", acc)
		}
		if !slices.ContainsFunc(classic.X, func(v float64) bool { return v != 0 }) {
			t.Fatalf("acc=%v: no features selected", acc)
		}
	}
}

func TestLassoMatchesSequentialCore(t *testing.T) {
	d, lambda := lassoProblem(t)
	opt := core.LassoOptions{Lambda: lambda, BlockSize: 4, Iters: 300, Accelerated: true, S: 20, Seed: 5}
	seq, err := core.Lasso(d.AsCSR().ToCSC(), d.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 8} {
		res, err := Lasso(d.AsCSR(), d.B, opt, Options{P: p, Machine: mpi.CrayXC30()})
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			// One rank reduces nothing: the rank body is core's driver
			// plus packing and accounting, bit for bit.
			if res.Objective != seq.Objective {
				t.Fatalf("P=1: objective %.17g != sequential %.17g", res.Objective, seq.Objective)
			}
			for i := range res.X {
				if res.X[i] != seq.X[i] {
					t.Fatalf("P=1: X[%d] %.17g != %.17g", i, res.X[i], seq.X[i])
				}
			}
			continue
		}
		// The distributed run reduces partial sums along the collective
		// tree, so agreement is up to roundoff, not bitwise — the paper's
		// Table III criterion.
		if r := relDiff(seq.Objective, res.Objective); r > 1e-8 {
			t.Fatalf("P=%d: objective %v != sequential %v (rel %v)", p, res.Objective, seq.Objective, r)
		}
		for i := range res.X {
			if math.Abs(res.X[i]-seq.X[i]) > 1e-8*(1+math.Abs(seq.X[i])) {
				t.Fatalf("P=%d: X[%d] %v != %v", p, i, res.X[i], seq.X[i])
			}
		}
	}
}

func TestLassoTraceAndAblations(t *testing.T) {
	d, lambda := lassoProblem(t)
	opt := core.LassoOptions{Lambda: lambda, Iters: 200, S: 10, Seed: 5, TrackEvery: 40}
	base, err := Lasso(d.AsCSR(), d.B, opt, Options{P: 4, Machine: mpi.CrayXC30()})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Trace) != 5 {
		t.Fatalf("trace length %d, want 5", len(base.Trace))
	}
	for i, p := range base.Trace {
		if p.Seconds <= 0 || (i > 0 && p.Seconds <= base.Trace[i-1].Seconds) {
			t.Fatalf("trace seconds not increasing: %+v", base.Trace)
		}
	}
}

func TestSVMClassicVsSAAndEarlyStop(t *testing.T) {
	d := datagen.Classification("dists", 7, 200, 80, 0.2, 0.05)
	base := core.SVMOptions{Lambda: 1, Iters: 2000, Seed: 9}
	cl := Options{P: 4, Machine: mpi.CrayXC30()}
	classic, err := SVM(d.AsCSR(), d.B, base, cl)
	if err != nil {
		t.Fatal(err)
	}
	sa := base
	sa.S = 32
	saRes, err := SVM(d.AsCSR(), d.B, sa, cl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(classic.Gap-saRes.Gap) > 1e-6*(1+math.Abs(classic.Gap)) {
		t.Fatalf("SA gap %v != classic %v", saRes.Gap, classic.Gap)
	}
	if saRes.Stats.TotalMsgs() >= classic.Stats.TotalMsgs() {
		t.Fatal("SA did not reduce messages")
	}
	if len(classic.X) != 80 || len(saRes.Alpha) != 200 {
		t.Fatal("result shapes")
	}

	// Early stop: a loose tolerance must cut the iteration count, and the
	// partial work must be reported.
	stop := sa
	stop.TrackEvery = 64
	stop.Tol = classic.Gap * 4
	stopped, err := SVM(d.AsCSR(), d.B, stop, cl)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iters >= stop.Iters {
		t.Fatalf("Tol did not stop early: %d iters", stopped.Iters)
	}
	if stopped.Gap > stop.Tol {
		t.Fatalf("stopped gap %v above Tol %v", stopped.Gap, stop.Tol)
	}
}

func TestSVMMatchesSequentialCore(t *testing.T) {
	d := datagen.Classification("dists2", 13, 150, 60, 0.25, 0.05)
	opt := core.SVMOptions{Lambda: 1, Loss: core.SVML2, Iters: 1500, S: 16, Seed: 2}
	seq, err := core.SVM(d.AsCSR(), d.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 5} {
		res, err := SVM(d.AsCSR(), d.B, opt, Options{P: p, Machine: mpi.EthernetCluster()})
		if err != nil {
			t.Fatal(err)
		}
		if p == 1 {
			if res.Gap != seq.Gap || res.Primal != seq.Primal || res.Dual != seq.Dual {
				t.Fatalf("P=1: objectives (%v,%v,%v) != sequential (%v,%v,%v)",
					res.Primal, res.Dual, res.Gap, seq.Primal, seq.Dual, seq.Gap)
			}
			for i := range res.X {
				if res.X[i] != seq.X[i] {
					t.Fatalf("P=1: X[%d] %.17g != %.17g", i, res.X[i], seq.X[i])
				}
			}
			continue
		}
		if r := relDiff(seq.Gap, res.Gap); r > 1e-6 && math.Abs(seq.Gap-res.Gap) > 1e-9 {
			t.Fatalf("P=%d: gap %v != sequential %v", p, res.Gap, seq.Gap)
		}
		for i := range res.X {
			if math.Abs(res.X[i]-seq.X[i]) > 1e-8*(1+math.Abs(seq.X[i])) {
				t.Fatalf("P=%d: X[%d] %v != %v", p, i, res.X[i], seq.X[i])
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	d := datagen.Regression("distv", 1, 40, 20, 0.2, 3, 0.05)
	if _, err := Lasso(d.AsCSR(), d.B, core.LassoOptions{Lambda: 0.1, Iters: 10}, Options{}); err == nil {
		t.Fatal("P=0 must fail")
	}
	if _, err := Lasso(d.AsCSR(), d.B[:10], core.LassoOptions{Lambda: 0.1, Iters: 10}, Options{P: 2}); err == nil {
		t.Fatal("short b must fail")
	}
	if _, err := SVM(d.AsCSR(), d.B, core.SVMOptions{Lambda: 1, Iters: 0}, Options{P: 2}); err == nil {
		t.Fatal("zero iters must fail")
	}
	// Both entry points reject a bad configuration with core's own error,
	// whatever the rank count.
	lassoBad := map[string]core.LassoOptions{
		"zero iters":         {Lambda: 0.1},
		"negative lambda":    {Lambda: -1, Iters: 10},
		"short X0":           {Lambda: 0.1, Iters: 10, X0: make([]float64, 3)},
		"block > n":          {Lambda: 0.1, Iters: 10, BlockSize: 21},
		"overlapping group":  {Lambda: 0.1, Iters: 10, Groups: [][]int{{0, 1}, {1, 2}}},
		"group out of range": {Lambda: 0.1, Iters: 10, Groups: [][]int{{0, 20}}},
	}
	for name, opt := range lassoBad {
		_, want := core.Lasso(d.AsCSR().ToCSC(), d.B, opt)
		for _, p := range []int{1, 3} {
			_, got := Lasso(d.AsCSR(), d.B, opt, Options{P: p})
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("lasso %s, P=%d: dist error %v, core error %v", name, p, got, want)
			}
		}
	}
	svmBad := map[string]core.SVMOptions{
		"zero lambda":  {Iters: 10},
		"short Alpha0": {Lambda: 1, Iters: 10, Alpha0: make([]float64, 3)},
	}
	for name, opt := range svmBad {
		_, want := core.SVM(d.AsCSR(), d.B, opt)
		for _, p := range []int{1, 3} {
			_, got := SVM(d.AsCSR(), d.B, opt, Options{P: p})
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("svm %s, P=%d: dist error %v, core error %v", name, p, got, want)
			}
		}
	}
	// More ranks than rows/columns still runs (empty slices are legal).
	res, err := Lasso(d.AsCSR(), d.B, core.LassoOptions{Lambda: 0.1, Iters: 20, S: 4}, Options{P: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.ModeledSeconds() <= 0 {
		t.Fatal("no modeled time with P>m")
	}
}
