package core

import (
	"fmt"
	"runtime"
	"testing"

	"saco/internal/datagen"
	"saco/internal/mat"
)

// solveBenchWorkers is the ladder of the end-to-end solve benchmarks:
// sequential, the 4-worker acceptance point, the whole machine.
func solveBenchWorkers() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	out := ws[:1]
	for _, w := range ws[1:] {
		if w > out[len(out)-1] {
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkSolveLassoSA runs the SA-accBCD solver end to end per worker
// count. Large blocks (µ=16, s=32) make the batched sµ×sµ Gram the
// dominant cost, which is exactly the kernel the multicore backend fans
// out.
func BenchmarkSolveLassoSA(b *testing.B) {
	m, n, iters := 3000, 1200, 256
	if testing.Short() {
		m, n, iters = 800, 300, 64
	}
	data := datagen.Regression("bench", 17, m, n, 0.05, 20, 0.05)
	a := data.AsCSR().ToCSC()
	lambda := 0.1 * LambdaMaxL1(a, data.B)
	for _, w := range solveBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Lasso(a, data.B, LassoOptions{
					Lambda: lambda, BlockSize: 16, Iters: iters, S: 32,
					Accelerated: true, Seed: 2,
					Exec: Exec{Backend: BackendMulticore, Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocalBackends exercises both local backends end to end on one
// short Lasso and one short SVM solve. CI runs it at one iteration as
// the fork-join smoke gate: a regression in the work rule or the
// multicore kernels fails here before it can hide behind the figure
// harness.
func BenchmarkLocalBackends(b *testing.B) {
	m, n := 2000, 600
	if testing.Short() {
		m, n = 600, 200
	}
	reg := datagen.Regression("bench-backends", 31, m, n, 0.05, 15, 0.05)
	cls := datagen.Classification("bench-backends", 37, m, n, 0.05, 0.05)
	cols := reg.AsCSR().ToCSC()
	rows := cls.AsCSR()
	lambda := 0.1 * LambdaMaxL1(cols, reg.B)
	backends := []Exec{
		{Backend: BackendSequential},
		{Backend: BackendMulticore, Workers: 4},
	}
	for _, e := range backends {
		b.Run("lasso/"+e.Backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Lasso(cols, reg.B, LassoOptions{
					Lambda: lambda, BlockSize: 8, Iters: 512, Seed: 2, Exec: e,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("svm/"+e.Backend.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SVM(rows, cls.B, SVMOptions{
					Lambda: 1, Iters: 2048, Seed: 2, Exec: e,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSVMSA runs SA dual coordinate descent end to end per
// worker count; the s×s row Gram dominates at s=128.
func BenchmarkSolveSVMSA(b *testing.B) {
	m, n, iters := 4000, 800, 1024
	if testing.Short() {
		m, n, iters = 1000, 200, 256
	}
	data := datagen.Classification("bench", 19, m, n, 0.05, 0.05)
	a := data.AsCSR()
	for _, w := range solveBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := SVM(a, data.B, SVMOptions{
					Lambda: 1, Iters: iters, S: 128, Seed: 2,
					Exec: Exec{Backend: BackendMulticore, Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLassoTimeToTarget is doc.go's time-to-target table: each
// configuration solves the Lasso to a 1e-6 relative objective at
// the smallest iteration count, on a 1.25× grid from 1 000, at which all
// five sampling seeds reach it (found once per process, untimed). An op
// is one solve, the seeds taken in turn; "iters" is the count and
// "reached" the share of timed solves that met the target. The
// reference optimum is a sequential solve whose duality gap certifies it
// to 1e-10 relative. Run as
//
//	go test -run=NONE -bench=LassoTimeToTarget -count=10 -cpu=2 ./internal/core/
//
// -count runs each cell that many times in a row.
func BenchmarkLassoTimeToTarget(b *testing.B) {
	tt := timeToTargetProblem(b)
	cells := []struct {
		name  string
		s     int
		exec  Exec
		accel bool
	}{
		{"seq-S1", 1, Exec{}, false},
		{"seq-S16", 16, Exec{}, false},
		{"multicore2-S16", 16, Exec{Backend: BackendMulticore, Workers: 2}, false},
		{"accel-S16", 16, Exec{}, true},
	}
	for _, mu := range []int{1, 8} {
		for _, c := range cells {
			name := fmt.Sprintf("mu=%d/%s", mu, c.name)
			b.Run(name, func(b *testing.B) {
				opt := LassoOptions{Lambda: tt.lambda, BlockSize: mu, S: c.s, Exec: c.exec, Accelerated: c.accel}
				iters, ok := tt.iters[name]
				if !ok {
					iters = tt.calibrate(b, opt)
					tt.iters[name] = iters
				}
				opt.Iters = iters
				reached := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opt.Seed = uint64(1 + i%5)
					res, err := Lasso(tt.a, tt.b, opt)
					if err != nil {
						b.Fatal(err)
					}
					if tt.atTarget(res.Objective) {
						reached++
					}
				}
				b.ReportMetric(float64(iters), "iters")
				b.ReportMetric(float64(reached)/float64(b.N), "reached")
			})
		}
	}
}

// timeToTarget is BenchmarkLassoTimeToTarget's problem, built once per
// process: -count re-runs the benchmark function, not the calibration.
type timeToTarget struct {
	a      ColMatrix
	b      []float64
	lambda float64
	fStar  float64
	iters  map[string]int // sub-benchmark name -> calibrated count
}

var timeToTargetCache *timeToTarget

func timeToTargetProblem(b *testing.B) *timeToTarget {
	if tt := timeToTargetCache; tt != nil {
		return tt
	}
	m, n := 8000, 4000
	if testing.Short() {
		m, n = 1000, 500
	}
	data := datagen.Regression("time-to-target", 1, m, n, 0.01, 40, 0.05)
	tt := &timeToTarget{a: data.AsCSR().ToCSC(), b: data.B, iters: map[string]int{}}
	tt.lambda = 0.1 * LambdaMaxL1(tt.a, tt.b)
	var x []float64
	for round := 0; ; round++ {
		res, err := Lasso(tt.a, tt.b, LassoOptions{Lambda: tt.lambda, Iters: 20 * n, Seed: uint64(round), X0: x})
		if err != nil {
			b.Fatal(err)
		}
		x = res.X
		r := make([]float64, m)
		tt.a.MulVec(x, r)
		mat.Axpy(-1, tt.b, r)
		if LassoDualityGap(tt.a, tt.b, x, r, tt.lambda) <= 1e-10*res.Objective {
			tt.fStar = res.Objective
			break
		}
		if round == 100 {
			b.Fatal("reference solve: duality gap not certified in 100 rounds")
		}
	}
	timeToTargetCache = tt
	return tt
}

func (tt *timeToTarget) atTarget(f float64) bool { return f-tt.fStar <= 1e-6*tt.fStar }

// calibrate returns the smallest grid count at which every seed reaches
// the target.
func (tt *timeToTarget) calibrate(b *testing.B, opt LassoOptions) int {
	for iters := 1000.0; iters < 1e9; iters *= 1.25 {
		opt.Iters = int(iters)
		all := true
		for seed := uint64(1); seed <= 5 && all; seed++ {
			opt.Seed = seed
			res, err := Lasso(tt.a, tt.b, opt)
			if err != nil {
				b.Fatal(err)
			}
			all = tt.atTarget(res.Objective)
		}
		if all {
			return opt.Iters
		}
	}
	b.Fatal("no grid count reaches the target")
	return 0
}
