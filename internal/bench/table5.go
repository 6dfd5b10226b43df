package bench

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/dist"
)

// table5Spec mirrors Table V. Rank counts scale the paper's 576/240/3072
// down 24x–96x. The paper stops at duality gap 1e-1 on the full datasets;
// on the scaled replicas the equivalent is a fixed iteration budget of
// several epochs — legitimate because SA and classic trajectories are
// numerically identical, so time-to-H equals time-to-gap for both.
var table5Spec = []struct {
	name     string
	replica  string
	p        int
	epochs   int
	sChoices []int
}{
	{name: "news20.binary", replica: "news20.binary", p: 24, epochs: 6, sChoices: []int{16, 32, 64, 128}},
	{name: "rcv1.binary", replica: "rcv1.binary", p: 16, epochs: 4, sChoices: []int{16, 32, 64, 128}},
	{name: "gisette", replica: "gisette", p: 32, epochs: 10, sChoices: []int{32, 64, 128, 256}},
}

// Table5Row is one dataset's SVM-L1 timing comparison.
type Table5Row struct {
	Dataset        string
	P              int
	Iters          int
	ClassicSeconds float64
	SASeconds      float64
	SBest          int
	Speedup        float64
	FinalGap       float64
	// FlopImbalance is max/min per-rank flops under the 1D-column layout:
	// the load-balancing effect §VI reports for the sparse datasets.
	FlopImbalance float64
}

// Table5Result reproduces Table V.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 times SVM-L1 vs SA-SVM-L1 on the simulated cluster, choosing the
// best s per dataset as the paper does ("s = 64 was the best setting for
// rcv1 and news20; s = 128 was best for gisette").
func Table5(cfg Config) (*Table5Result, error) {
	cfg = cfg.withDefaults()
	out := &Table5Result{}
	for _, spec := range table5Spec {
		_, a, b, err := svmData(spec.replica, cfg)
		if err != nil {
			return nil, err
		}
		m, _ := a.Dims()
		h := cfg.iters(spec.epochs * m)
		base := core.SVMOptions{Lambda: 1, Loss: core.SVML1, Iters: h, Seed: cfg.Seed}
		sGrid := clampS(spec.sChoices, h)
		classic, sa, best, err := sweepS(sGrid, func(s int) (*dist.SVMResult, error) {
			opt := base
			opt.S = s
			return dist.SVM(a, b, opt, dist.Options{P: spec.p, Machine: cfg.Machine})
		})
		if err != nil {
			return nil, err
		}
		bestT := sa[best].ModeledSeconds()
		var minF, maxF float64
		for i, r := range classic.Stats.PerRank {
			if i == 0 || r.Flops < minF {
				minF = r.Flops
			}
			if r.Flops > maxF {
				maxF = r.Flops
			}
		}
		imb := 1.0
		if minF > 0 {
			imb = maxF / minF
		}
		out.Rows = append(out.Rows, Table5Row{
			Dataset: spec.name, P: spec.p, Iters: h,
			ClassicSeconds: classic.ModeledSeconds(), SASeconds: bestT,
			SBest: sGrid[best], Speedup: classic.ModeledSeconds() / bestT,
			FinalGap: classic.Gap, FlopImbalance: imb,
		})
	}
	out.render(cfg)
	return out, nil
}

func (r *Table5Result) render(cfg Config) {
	t := newTable("dataset", "P", "iters", "SVM-L1 time", "SA-SVM-L1 time", "best s", "speedup", "flop imbalance")
	for _, row := range r.Rows {
		t.add(row.Dataset, fmt.Sprintf("%d", row.P), fmt.Sprintf("%d", row.Iters),
			fmt.Sprintf("%.4es", row.ClassicSeconds), fmt.Sprintf("%.4es", row.SASeconds),
			fmt.Sprintf("%d", row.SBest), fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%.2f", row.FlopImbalance))
	}
	t.write(cfg.Out, "Table V: SA-SVM-L1 speedups over SVM-L1 (modeled Cray XC30 time)")
}
