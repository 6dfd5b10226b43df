package bench

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/dist"
)

// fig4Spec: strong-scaling rank sweeps (paper: 192–12288 cores, scaled
// down 48x) and the s sweep of the speedup-breakdown panels.
var fig4Spec = []struct {
	name  string
	ps    []int
	iters int
	sMax  int
}{
	{name: "news20", ps: []int{4, 8, 16}, iters: 1500, sMax: 128},
	{name: "covtype", ps: []int{8, 16, 32}, iters: 400, sMax: 64},
	{name: "url", ps: []int{16, 32, 64}, iters: 1000, sMax: 512},
	{name: "epsilon", ps: []int{16, 32, 64}, iters: 600, sMax: 256},
}

// ScalePoint is one (P, time) pair of the strong-scaling panels 4a–4d.
type ScalePoint struct {
	P              int
	ClassicSeconds float64
	SASeconds      float64
	SBest          int
}

// SpeedupPoint is one s value of the breakdown panels 4e–4h.
type SpeedupPoint struct {
	S           int
	Total       float64
	Comm        float64
	Comp        float64
	SecondsSA   float64
	SecondsBase float64
}

// Fig4Panel is one dataset's scaling study.
type Fig4Panel struct {
	Name     string
	Scaling  []ScalePoint   // accCD vs SA-accCD across P (Fig. 4a–d)
	Speedups []SpeedupPoint // breakdown across s at the largest P (Fig. 4e–h)
}

// Fig4Result reproduces Fig. 4.
type Fig4Result struct {
	Panels []Fig4Panel
}

// Fig4 reproduces the strong-scaling comparison (accCD vs SA-accCD) and
// the total/communication/computation speedup breakdown across s.
func Fig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig4Result{}
	for _, spec := range fig4Spec {
		_, a, b, lambda, err := lassoData(spec.name, cfg)
		if err != nil {
			return nil, err
		}
		h := cfg.iters(spec.iters)
		base := core.LassoOptions{Lambda: lambda, BlockSize: 1, Iters: h, Accelerated: true, Seed: cfg.Seed}
		panel := Fig4Panel{Name: spec.name}

		// Panels a–d: strong scaling at each P, SA at its measured-best s;
		// panels e–h: the breakdown across the s grid of the largest P's
		// sweep.
		sGrid := sValuesUpTo(spec.sMax, h)
		for i, p := range spec.ps {
			classic, sa, best, err := sweepS(sGrid, func(s int) (*dist.LassoResult, error) {
				opt := base
				opt.S = s
				return dist.Lasso(a, b, opt, dist.Options{P: p, Machine: cfg.Machine})
			})
			if err != nil {
				return nil, err
			}
			panel.Scaling = append(panel.Scaling, ScalePoint{
				P: p, ClassicSeconds: classic.ModeledSeconds(), SASeconds: sa[best].ModeledSeconds(), SBest: sGrid[best],
			})
			if i == len(spec.ps)-1 {
				for j, saRes := range sa {
					panel.Speedups = append(panel.Speedups, SpeedupPoint{
						S:           sGrid[j],
						Total:       classic.ModeledSeconds() / saRes.ModeledSeconds(),
						Comm:        safeDiv(classic.Stats.MaxComm(), saRes.Stats.MaxComm()),
						Comp:        safeDiv(classic.Stats.MaxComp(), saRes.Stats.MaxComp()),
						SecondsSA:   saRes.ModeledSeconds(),
						SecondsBase: classic.ModeledSeconds(),
					})
				}
			}
		}
		out.Panels = append(out.Panels, panel)
	}
	out.render(cfg)
	return out, nil
}

func sValuesUpTo(sMax, h int) []int {
	var out []int
	for s := 2; s <= sMax && s <= h; s *= 2 {
		out = append(out, s)
	}
	if len(out) == 0 {
		out = []int{2}
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

func (r *Fig4Result) render(cfg Config) {
	for _, p := range r.Panels {
		t := newTable("P", "accCD time", "SA-accCD time", "best s", "speedup")
		for _, sp := range p.Scaling {
			t.add(fmt.Sprintf("%d", sp.P), fmt.Sprintf("%.4es", sp.ClassicSeconds),
				fmt.Sprintf("%.4es", sp.SASeconds), fmt.Sprintf("%d", sp.SBest),
				fmt.Sprintf("%.2fx", sp.ClassicSeconds/sp.SASeconds))
		}
		t.write(cfg.Out, fmt.Sprintf("Fig 4a-d (%s): strong scaling, modeled time", p.Name))

		t2 := newTable("s", "total", "communication", "computation")
		for _, sp := range p.Speedups {
			t2.add(fmt.Sprintf("%d", sp.S), fmt.Sprintf("%.2fx", sp.Total),
				fmt.Sprintf("%.2fx", sp.Comm), fmt.Sprintf("%.2fx", sp.Comp))
		}
		t2.write(cfg.Out, fmt.Sprintf("Fig 4e-h (%s): SA-accCD speedup breakdown vs s", p.Name))
	}
}
