// dist at P=1 is core: the redundancy the unified batch driver rests on,
// as a contract. An external test package for the same reason as
// transport_parity_test.go.
package dist_test

import (
	"fmt"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/testmatrix"
)

// unrollings covers the classical spelling (S unset and S = 1) and a
// batched one.
var unrollings = []int{0, 1, 16}

// TestLassoSingleRankIsCoreBitwise runs every Lasso variant through
// dist.LassoFrom on a one-rank world and through core.Lasso, over every
// dataset form that can back a distributed run, and asserts solution,
// objective and every traced value are bitwise equal: the rank body adds
// packing, cost accounting and tracing around core's driver, never
// arithmetic.
func TestLassoSingleRankIsCoreBitwise(t *testing.T) {
	d := datagen.Regression("p1-lasso", 31, 160, 48, 0.15, 6, 0.1)
	lambda := 0.1 * core.LambdaMaxL1(d.AsCSR().ToCSC(), d.B)
	for _, f := range testmatrix.Forms(t, d.AsCSR(), d.B, 32) {
		if f.Source == nil {
			continue
		}
		for _, acc := range []bool{false, true} {
			for _, mu := range []int{1, 4} {
				for _, s := range unrollings {
					name := fmt.Sprintf("%s acc=%v mu=%d S=%d", f.Name, acc, mu, s)
					opt := core.LassoOptions{
						Lambda: lambda, BlockSize: mu, Iters: 64, S: s,
						Accelerated: acc, Seed: 7, TrackEvery: 16,
					}
					want, err := core.Lasso(f.Col, d.B, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got, err := dist.LassoFrom(f.Source, d.B, opt, dist.Options{P: 1})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					testmatrix.SameFloats(t, name+" X", got.X, want.X)
					if got.Objective != want.Objective {
						t.Fatalf("%s: objective %.17g != core %.17g", name, got.Objective, want.Objective)
					}
					if len(got.Trace) != len(want.History) || len(got.Trace) == 0 {
						t.Fatalf("%s: %d trace points, core has %d", name, len(got.Trace), len(want.History))
					}
					for i, p := range got.Trace {
						if h := want.History[i]; p.Iter != h.Iter || p.Value != h.Value {
							t.Fatalf("%s: trace[%d] = %+v, core %+v", name, i, p, h)
						}
					}
				}
			}
		}
	}
}

// TestSVMSingleRankIsCoreBitwise is the dual-solver twin, over both
// losses.
func TestSVMSingleRankIsCoreBitwise(t *testing.T) {
	d := datagen.Classification("p1-svm", 33, 160, 48, 0.15, 0.05)
	for _, f := range testmatrix.Forms(t, d.AsCSR(), d.B, 32) {
		if f.Source == nil {
			continue
		}
		for _, loss := range []core.SVMLoss{core.SVML1, core.SVML2} {
			for _, s := range unrollings {
				name := fmt.Sprintf("%s %v S=%d", f.Name, loss, s)
				opt := core.SVMOptions{Lambda: 1, Loss: loss, Iters: 300, S: s, Seed: 9, TrackEvery: 60}
				want, err := core.SVM(f.Row, d.B, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := dist.SVMFrom(f.Source, d.B, opt, dist.Options{P: 1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				testmatrix.SameFloats(t, name+" X", got.X, want.X)
				testmatrix.SameFloats(t, name+" Alpha", got.Alpha, want.Alpha)
				if got.Primal != want.Primal || got.Dual != want.Dual || got.Gap != want.Gap {
					t.Fatalf("%s: objectives (%v,%v,%v) != core (%v,%v,%v)",
						name, got.Primal, got.Dual, got.Gap, want.Primal, want.Dual, want.Gap)
				}
				if len(got.Trace) != len(want.History) || len(got.Trace) == 0 {
					t.Fatalf("%s: %d trace points, core has %d", name, len(got.Trace), len(want.History))
				}
				for i, p := range got.Trace {
					if h := want.History[i]; p.Iter != h.Iter || p.Value != h.Gap {
						t.Fatalf("%s: trace[%d] = %+v, core %+v", name, i, p, h)
					}
				}
			}
		}
	}
}
