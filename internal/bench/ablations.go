package bench

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/dist"
	"saco/internal/mpi"
)

// AblationRow is one configuration of the design-choice ablations.
type AblationRow struct {
	Name    string
	Seconds float64
	Words   int64
	Msgs    int64
}

// MachineRow is one platform of the latency-sensitivity study (§VII: the
// paper predicts larger SA gains on high-latency frameworks like Spark).
type MachineRow struct {
	Machine string
	Classic float64
	SA      float64
	Speedup float64
	BestS   int
}

// AblationsResult collects both studies.
type AblationsResult struct {
	Design   []AblationRow
	Machines []MachineRow
}

// Ablations quantifies the paper's design choices on the news20 workload:
// replicated-seed coordinate agreement vs broadcasting indices, symmetric
// half-packing of the Gram message (§III fn. 3), and the machine-latency
// sensitivity of the SA speedup (§VII).
func Ablations(cfg Config) (*AblationsResult, error) {
	cfg = cfg.withDefaults()
	_, a, b, lambda, err := lassoData("news20", cfg)
	if err != nil {
		return nil, err
	}
	h := cfg.iters(1000)
	copt := core.LassoOptions{Lambda: lambda, BlockSize: 1, Iters: h, Accelerated: true, Seed: cfg.Seed, S: 16}
	out := &AblationsResult{}

	for _, v := range []struct {
		name string
		opt  dist.Options
	}{
		{"SA s=16, replicated seed, half-pack Gram", dist.Options{P: 16, Machine: cfg.Machine}},
		{"SA s=16, broadcast indices", dist.Options{P: 16, Machine: cfg.Machine, BroadcastIndices: true}},
		{"SA s=16, full Gram pack", dist.Options{P: 16, Machine: cfg.Machine, FullGramPack: true}},
		{"SA s=16, Rabenseifner allreduce", dist.Options{P: 16, Machine: cfg.Machine, RSAGAllreduce: true}},
	} {
		res, err := dist.Lasso(a, b, copt, v.opt)
		if err != nil {
			return nil, err
		}
		out.Design = append(out.Design, AblationRow{
			Name: v.name, Seconds: res.ModeledSeconds(),
			Words: res.Stats.TotalWords(), Msgs: res.Stats.TotalMsgs(),
		})
	}

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

	t := newTable("configuration", "modeled time", "total words", "total msgs")
	for _, r := range out.Design {
		t.add(r.Name, fmt.Sprintf("%.4es", r.Seconds), fmt.Sprintf("%d", r.Words), fmt.Sprintf("%d", r.Msgs))
	}
	t.write(cfg.Out, "Ablations: coordinate agreement and Gram packing (news20, accCD, P=16)")

	t2 := newTable("machine", "classic", "best SA", "speedup", "best s")
	for _, r := range out.Machines {
		t2.add(r.Machine, fmt.Sprintf("%.4es", r.Classic), fmt.Sprintf("%.4es", r.SA),
			fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprintf("%d", r.BestS))
	}
	t2.write(cfg.Out, "Machine sensitivity: SA speedup grows with synchronization latency (§VII)")
	return out, nil
}
