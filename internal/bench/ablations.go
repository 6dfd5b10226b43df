package bench

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/dist"
	"saco/internal/mpi"
)

// MachineRow is one platform of the latency-sensitivity study (§VII: the
// paper predicts larger SA gains on high-latency frameworks like Spark).
type MachineRow struct {
	Machine string
	Classic float64
	SA      float64
	Speedup float64
	BestS   int
}

// AblationsResult is the machine-sensitivity study.
type AblationsResult struct {
	Machines []MachineRow
}

// Ablations prices the machine-latency sensitivity of the SA speedup
// (§VII) on the news20 workload at P = 16: the classic solver against the
// best s of a small grid, on each machine preset.
func Ablations(cfg Config) (*AblationsResult, error) {
	cfg = cfg.withDefaults()
	_, a, b, lambda, err := lassoData("news20", cfg)
	if err != nil {
		return nil, err
	}
	h := cfg.iters(1000)
	copt := core.LassoOptions{Lambda: lambda, BlockSize: 1, Iters: h, Accelerated: true, Seed: cfg.Seed}
	out := &AblationsResult{}

	var sGrid []int
	for _, s := range []int{4, 16, 64, 256} {
		if s <= h {
			sGrid = append(sGrid, s)
		}
	}
	for _, m := range []mpi.Machine{mpi.CrayXC30(), mpi.EthernetCluster(), mpi.SparkLike()} {
		classic, sa, best, err := sweepS(sGrid, func(s int) (*dist.LassoResult, error) {
			opt := copt
			opt.S = s
			return dist.Lasso(a, b, opt, dist.Options{P: 16, Machine: m})
		})
		if err != nil {
			return nil, err
		}
		bestT := sa[best].ModeledSeconds()
		out.Machines = append(out.Machines, MachineRow{
			Machine: m.Name, Classic: classic.ModeledSeconds(), SA: bestT,
			Speedup: classic.ModeledSeconds() / bestT, BestS: sGrid[best],
		})
	}

	t := newTable("machine", "classic", "best SA", "speedup", "best s")
	for _, r := range out.Machines {
		t.add(r.Machine, fmt.Sprintf("%.4es", r.Classic), fmt.Sprintf("%.4es", r.SA),
			fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprintf("%d", r.BestS))
	}
	t.write(cfg.Out, "Machine sensitivity: SA speedup grows with synchronization latency (§VII)")
	return out, nil
}
