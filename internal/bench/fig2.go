package bench

import (
	"fmt"
	"math"

	"saco/internal/core"
)

// Fig2Dataset is one panel of Fig. 2 plus its Table III row.
type Fig2Dataset struct {
	Name   string
	Series []Series
	// RelErr maps method name to the final relative objective error
	// |f_classic − f_SA| / f_classic (Table III; machine precision is
	// 2.2e-16).
	RelErr map[string]float64
}

// Fig2Result holds the convergence-equivalence experiment.
type Fig2Result struct {
	Datasets []Fig2Dataset
}

// fig2Spec fixes the per-dataset parameters: iteration counts follow the
// paper's x-axes (scaled); the unrolling values keep the batched Gram
// dimension s·µ near 1000, the paper's most aggressive setting (for µ = 8
// the paper's s = 1000 would need a 8000² Gram matrix, so s = 128 keeps
// the same conditioning stress at feasible memory).
var fig2Spec = []struct {
	name        string
	iters       int
	sCD, sBCD   int
	muBCD       int
	replicaName string
}{
	{name: "leu", iters: 4000, sCD: 1000, sBCD: 128, muBCD: 8, replicaName: "leu"},
	{name: "covtype", iters: 400, sCD: 400, sBCD: 50, muBCD: 8, replicaName: "covtype"},
	{name: "news20", iters: 4000, sCD: 1000, sBCD: 128, muBCD: 8, replicaName: "news20"},
}

// Fig2 reproduces Fig. 2 (objective vs iterations for CD, accCD, BCD,
// accBCD and their SA variants) and Table III (final relative objective
// errors) on the leu, covtype and news20 replicas.
func Fig2(cfg Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig2Result{}
	for _, spec := range fig2Spec {
		d, a, b, lambda, err := lassoData(spec.replicaName, cfg)
		if err != nil {
			return nil, err
		}
		_ = d
		cols := a.ToCSC()
		_, n := a.Dims()
		muBCD := min(spec.muBCD, n) // tiny smoke-test replicas can have n < µ
		h := cfg.iters(spec.iters)
		track := max(h/40, 1)
		panel := Fig2Dataset{Name: spec.name, RelErr: map[string]float64{}}
		for _, m := range []struct {
			acc bool
			mu  int
			s   int
		}{
			{false, 1, 1}, {true, 1, 1}, {false, muBCD, 1}, {true, muBCD, 1},
		} {
			sSA := spec.sCD
			if m.mu > 1 {
				sSA = spec.sBCD
			}
			if sSA > h {
				sSA = h
			}
			base := core.LassoOptions{
				Lambda: lambda, BlockSize: m.mu, Iters: h,
				Accelerated: m.acc, Seed: cfg.Seed, TrackEvery: track,
			}
			classic, err := core.Lasso(cols, b, base)
			if err != nil {
				return nil, err
			}
			sa := base
			sa.S = sSA
			saRes, err := core.Lasso(cols, b, sa)
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series,
				historySeries(methodName(m.acc, m.mu, 1), classic.History),
				historySeries(methodName(m.acc, m.mu, sSA), saRes.History),
			)
			rel := math.Abs(classic.Objective-saRes.Objective) /
				math.Max(1e-300, math.Abs(classic.Objective))
			panel.RelErr[methodName(m.acc, m.mu, 1)] = rel
		}
		out.Datasets = append(out.Datasets, panel)
	}
	out.render(cfg)
	return out, nil
}

func (r *Fig2Result) render(cfg Config) {
	for _, d := range r.Datasets {
		writeSeries(cfg.Out, fmt.Sprintf("Fig 2 (%s): objective vs iterations", d.Name), d.Series, 9)
	}
	t := newTable("dataset", "method", "relative objective error (Table III)")
	for _, d := range r.Datasets {
		for _, m := range []string{"CD", "accCD", "BCD", "accBCD"} {
			if v, ok := d.RelErr[m]; ok {
				t.add(d.Name, "SA-"+m, fmt.Sprintf("%.4e", v))
			}
		}
	}
	t.write(cfg.Out, "Table III: final relative objective error, SA vs non-SA (machine eps 2.2e-16)")
}
