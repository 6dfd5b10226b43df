// Benchmarks regenerating each table and figure of the paper at reduced
// scale (one benchmark per artifact, as indexed in DESIGN.md §5). Run
// cmd/saexp for the full-scale experiment output; these benches verify
// the harness end to end under `go test -bench` and report the headline
// metric of each artifact via b.ReportMetric.
package saco_test

import (
	"math"
	"testing"

	"saco"
	"saco/internal/bench"
)

// benchCfg is the reduced-scale configuration used by every artifact
// benchmark. Scale/IterScale trade fidelity for wall time; cmd/saexp runs
// the same code at full scale, and -short (the CI bench-smoke job)
// shrinks the presets further.
func benchCfg() bench.Config {
	cfg := bench.Config{Scale: 0.05, IterScale: 0.05, Seed: 99}
	if testing.Short() {
		cfg.Scale = 0.02
		cfg.IterScale = 0.02
	}
	return cfg
}

// BenchmarkTable1CostModel evaluates the Table I closed forms.
func BenchmarkTable1CostModel(b *testing.B) {
	var opt int
	for i := 0; i < b.N; i++ {
		res, err := bench.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		opt = res.OptimalS
	}
	b.ReportMetric(float64(opt), "optimal-s")
}

// BenchmarkTable2Datasets generates every replica of Tables II and IV.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Tables2and4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Convergence runs the convergence-equivalence panels
// (objective vs iterations, SA vs classic at extreme s).
func BenchmarkFig2Convergence(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, d := range res.Datasets {
			for _, v := range d.RelErr {
				if v > worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(worst, "max-rel-obj-err")
}

// BenchmarkTable3Equivalence measures the Table III final relative
// objective error on a longer single-dataset run.
func BenchmarkTable3Equivalence(b *testing.B) {
	data := saco.Regression("t3", 1, 400, 250, 0.08, 10, 0.05)
	cols := data.Cols()
	lambda := 0.1 * saco.LambdaMax(cols, data.B)
	var rel float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := saco.LassoOptions{Lambda: lambda, BlockSize: 1, Iters: 1000, Accelerated: true, Seed: 7}
		classic, err := saco.Lasso(cols, data.B, opt)
		if err != nil {
			b.Fatal(err)
		}
		opt.S = 1000
		sa, err := saco.Lasso(cols, data.B, opt)
		if err != nil {
			b.Fatal(err)
		}
		rel = math.Abs(classic.Objective-sa.Objective) / classic.Objective
	}
	b.ReportMetric(rel, "rel-obj-err")
}

// BenchmarkFig3TimeToSolution runs the objective-vs-modeled-time panels
// on the simulated cluster and reports the best SA speedup observed.
func BenchmarkFig3TimeToSolution(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, p := range res.Panels {
			for _, v := range p.Speedup {
				if v > best {
					best = v
				}
			}
		}
	}
	b.ReportMetric(best, "best-sa-speedup")
}

// BenchmarkFig4StrongScaling runs the accCD vs SA-accCD scaling panels.
func BenchmarkFig4StrongScaling(b *testing.B) {
	var speedupAtMaxP float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Panels[0].Scaling[len(res.Panels[0].Scaling)-1]
		speedupAtMaxP = last.ClassicSeconds / last.SASeconds
	}
	b.ReportMetric(speedupAtMaxP, "speedup-at-max-p")
}

// BenchmarkFig4SpeedupBreakdown reports the communication-speedup peak of
// the Fig. 4e–h panels.
func BenchmarkFig4SpeedupBreakdown(b *testing.B) {
	var peakComm float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		peakComm = 0
		for _, p := range res.Panels {
			for _, sp := range p.Speedups {
				if sp.Comm > peakComm {
					peakComm = sp.Comm
				}
			}
		}
	}
	b.ReportMetric(peakComm, "peak-comm-speedup")
}

// BenchmarkFig5DualityGap runs the SVM duality-gap panels and reports the
// worst SA-vs-classic trajectory deviation.
func BenchmarkFig5DualityGap(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range res.Panels {
			for _, v := range p.MaxDeviation {
				if v > worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(worst, "max-gap-deviation")
}

// BenchmarkTable5SVMSpeedup times SVM-L1 vs SA-SVM-L1 on the simulated
// cluster.
func BenchmarkTable5SVMSpeedup(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Table5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range res.Rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
	}
	b.ReportMetric(best, "best-svm-speedup")
}

// BenchmarkAblations runs the design-choice and machine-sensitivity
// studies, reporting the Spark-like speedup (the paper's §VII claim that
// high-latency frameworks gain most).
func BenchmarkAblations(b *testing.B) {
	var spark float64
	for i := 0; i < b.N; i++ {
		res, err := bench.Ablations(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		spark = res.Machines[len(res.Machines)-1].Speedup
	}
	b.ReportMetric(spark, "spark-speedup")
}
