// Package bench regenerates every table and figure of the paper's
// evaluation (§IV and §VI) on the synthetic dataset replicas and the
// simulated Cray XC30. Each experiment function returns a structured
// result and can render it as text; cmd/saexp is the CLI front end.
//
// Scaling note: the experiments run the paper's parameter grids on
// scaled-down replicas (see internal/datagen) and rank counts (the paper
// uses 192–12,288 MPI processes; the simulator runs 4–64 goroutine ranks
// and models Cray XC30 time with the α-β-γ model). Measured (not
// modeled) solve times are the repository benchmark's job: see
// benchmarks/README.md.
package bench

import (
	"fmt"
	"io"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/mpi"
	"saco/internal/sparse"
)

// Config controls the experiment scale.
type Config struct {
	// Scale multiplies dataset dimensions (1 = the replica defaults).
	Scale float64
	// IterScale multiplies iteration counts (1 = full experiment; tests
	// use ~0.05 for smoke coverage).
	IterScale float64
	// Machine is the modeled platform (default CrayXC30).
	Machine mpi.Machine
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Seed drives dataset generation and solver sampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.IterScale <= 0 {
		c.IterScale = 1
	}
	if c.Machine.Name == "" {
		c.Machine = mpi.CrayXC30()
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Seed == 0 {
		c.Seed = 20180521 // IPDPS 2018 opening day
	}
	return c
}

// iters scales an iteration count, keeping at least a handful.
func (c Config) iters(h int) int {
	v := int(float64(h) * c.IterScale)
	if v < 8 {
		v = 8
	}
	return v
}

// Series is one convergence curve.
type Series struct {
	Label  string
	Iters  []int
	Times  []float64 // modeled seconds; nil for iteration-indexed series
	Values []float64
}

// sweepS runs solve classically (s = 1) and at every s of sGrid — the
// comparison every timing experiment makes — and returns the results
// with the index of the SA run fastest by modeled time (the first, on
// ties). sGrid must not be empty.
func sweepS[R interface{ ModeledSeconds() float64 }](sGrid []int, solve func(s int) (R, error)) (classic R, sa []R, best int, err error) {
	if classic, err = solve(1); err != nil {
		return classic, nil, 0, err
	}
	for i, s := range sGrid {
		res, err := solve(s)
		if err != nil {
			return classic, nil, 0, err
		}
		sa = append(sa, res)
		if res.ModeledSeconds() < sa[best].ModeledSeconds() {
			best = i
		}
	}
	return classic, sa, best, nil
}

// clampS caps every s of a legend grid at the iteration budget h (the
// scaled-down smoke runs have fewer iterations than the paper's s).
func clampS(ss []int, h int) []int {
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = min(s, h)
	}
	return out
}

// lassoData loads a Lasso replica and picks λ = 0.1·‖Aᵀb‖_∞ (see
// DESIGN.md for why this replaces the paper's 100·σ_min).
func lassoData(name string, cfg Config) (*datagen.Dataset, *sparse.CSR, []float64, float64, error) {
	d, err := datagen.Replica(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	a := d.AsCSR()
	lambda := 0.1 * core.LambdaMaxL1(a.ToCSC(), d.B)
	if lambda == 0 {
		lambda = 0.1
	}
	return d, a, d.B, lambda, nil
}

// svmData loads an SVM replica.
func svmData(name string, cfg Config) (*datagen.Dataset, *sparse.CSR, []float64, error) {
	d, err := datagen.Replica(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, d.AsCSR(), d.B, nil
}

// historySeries converts a core history to a Series.
func historySeries(label string, hist []core.TracePoint) Series {
	s := Series{Label: label}
	for _, p := range hist {
		s.Iters = append(s.Iters, p.Iter)
		s.Values = append(s.Values, p.Value)
	}
	return s
}

// gapSeries converts an SVM gap history to a Series.
func gapSeries(label string, hist []core.GapPoint) Series {
	s := Series{Label: label}
	for _, p := range hist {
		s.Iters = append(s.Iters, p.Iter)
		s.Values = append(s.Values, p.Gap)
	}
	return s
}

// methodName renders the paper's method naming (CD, accBCD, SA-accCD, ...).
func methodName(accelerated bool, mu, s int) string {
	name := "CD"
	if mu > 1 {
		name = "BCD"
	}
	if accelerated {
		name = "acc" + name
	}
	if s > 1 {
		name = fmt.Sprintf("SA-%s(s=%d)", name, s)
	}
	return name
}
