package bench

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/dist"
)

// fig3Spec mirrors the paper's Fig. 3 panels. The processor counts scale
// the paper's 768/3072/12288 down by 48x (the simulator runs real
// goroutine ranks); the s values are the paper's legend values.
var fig3Spec = []struct {
	name    string
	p       int
	itersCD int
	muBCD   int
	sCD     [2]int // best / too-large, from the paper's legends
	sAccCD  [2]int
	sBCD    [2]int
	sAccBCD [2]int
}{
	{name: "news20", p: 16, itersCD: 3000, muBCD: 8, sCD: [2]int{32, 128}, sAccCD: [2]int{16, 128}, sBCD: [2]int{8, 32}, sAccBCD: [2]int{8, 16}},
	{name: "covtype", p: 32, itersCD: 400, muBCD: 2, sCD: [2]int{16, 64}, sAccCD: [2]int{32, 128}, sBCD: [2]int{32, 128}, sAccBCD: [2]int{32, 128}},
	{name: "url", p: 64, itersCD: 2000, muBCD: 8, sCD: [2]int{64, 512}, sAccCD: [2]int{64, 512}, sBCD: [2]int{32, 64}, sAccBCD: [2]int{32, 64}},
	{name: "epsilon", p: 64, itersCD: 1000, muBCD: 8, sCD: [2]int{64, 256}, sAccCD: [2]int{64, 256}, sBCD: [2]int{8, 32}, sAccBCD: [2]int{8, 32}},
}

// Fig3Panel is one dataset's convergence-vs-running-time curves.
type Fig3Panel struct {
	Name   string
	P      int
	Series []Series
	// Speedup maps method name to modeled time(classic)/time(best SA) at
	// equal iteration counts — the headline numbers of §IV-B.
	Speedup map[string]float64
}

// Fig3Result reproduces Fig. 3.
type Fig3Result struct {
	Panels []Fig3Panel
}

// Fig3 runs CD, accCD, BCD and accBCD plus their SA variants on the
// simulated cluster and reports objective vs modeled running time.
func Fig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig3Result{}
	for _, spec := range fig3Spec {
		_, a, b, lambda, err := lassoData(spec.name, cfg)
		if err != nil {
			return nil, err
		}
		_, n := a.Dims()
		muBCD := min(spec.muBCD, n) // tiny smoke-test replicas can have n < µ
		panel := Fig3Panel{Name: spec.name, P: spec.p, Speedup: map[string]float64{}}
		for _, m := range []struct {
			acc bool
			mu  int
			ss  [2]int
		}{
			{false, 1, spec.sCD},
			{true, 1, spec.sAccCD},
			{false, muBCD, spec.sBCD},
			{true, muBCD, spec.sAccBCD},
		} {
			h := cfg.iters(spec.itersCD)
			if m.mu > 1 {
				h = cfg.iters(spec.itersCD / 2)
			}
			track := max(h/20, 1)
			base := core.LassoOptions{
				Lambda: lambda, BlockSize: m.mu, Iters: h,
				Accelerated: m.acc, Seed: cfg.Seed, TrackEvery: track,
			}
			sGrid := clampS(m.ss[:], h)
			classic, sa, best, err := sweepS(sGrid, func(s int) (*dist.LassoResult, error) {
				opt := base
				opt.S = s
				return dist.Lasso(a, b, opt, dist.Options{P: spec.p, Machine: cfg.Machine})
			})
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series, timedSeries(methodName(m.acc, m.mu, 1), classic.Trace))
			for i, saRes := range sa {
				panel.Series = append(panel.Series, timedSeries(methodName(m.acc, m.mu, sGrid[i]), saRes.Trace))
			}
			panel.Speedup[methodName(m.acc, m.mu, 1)] = classic.ModeledSeconds() / sa[best].ModeledSeconds()
		}
		out.Panels = append(out.Panels, panel)
	}
	out.render(cfg)
	return out, nil
}

func timedSeries(label string, trace []dist.TimedPoint) Series {
	s := Series{Label: label}
	for _, p := range trace {
		s.Iters = append(s.Iters, p.Iter)
		s.Times = append(s.Times, p.Seconds)
		s.Values = append(s.Values, p.Value)
	}
	return s
}

func (r *Fig3Result) render(cfg Config) {
	for _, p := range r.Panels {
		writeSeries(cfg.Out, fmt.Sprintf("Fig 3 (%s, P=%d): objective vs modeled running time", p.Name, p.P), p.Series, 6)
		t := newTable("method", "modeled speedup of best SA variant")
		for _, m := range []string{"CD", "accCD", "BCD", "accBCD"} {
			if v, ok := p.Speedup[m]; ok {
				t.add(m, fmt.Sprintf("%.2fx", v))
			}
		}
		t.write(cfg.Out, fmt.Sprintf("Fig 3 (%s): SA speedups at equal iterations", p.Name))
	}
}
