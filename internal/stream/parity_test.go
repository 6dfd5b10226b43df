// Cross-backend × dataset-form parity harness: the ROADMAP determinism
// matrix asserted in one table-driven place. Every past PR promised one
// cell of this matrix ("multicore is bitwise", "streamed sequential is
// bitwise", "simulated runs don't care where blocks come from"); this
// file runs the full cross product so a regression in any
// representation × backend pair fails loudly, with the dataset forms
// enumerated by internal/testmatrix.
package stream_test

import (
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/stream"
	"saco/internal/testmatrix"
)

// lassoOpts is the deterministic s-step preset of the matrix: enough
// iterations to leave the initial zeros, small enough to keep ~60 cells
// fast. TrackEvery makes trajectories (not just endpoints) comparable.
func lassoOpts() core.LassoOptions {
	return core.LassoOptions{Lambda: 0.4, Iters: 120, S: 4, BlockSize: 2, Seed: 42, TrackEvery: 30}
}

func svmOpts() core.SVMOptions {
	return core.SVMOptions{Lambda: 1, Iters: 120, S: 4, Seed: 9, TrackEvery: 30}
}

// TestParityMatrixLasso runs the Lasso column-access solvers over every
// dataset form × backend cell.
func TestParityMatrixLasso(t *testing.T) {
	d := datagen.Regression("parity-lasso", 21, 256, 64, 0.12, 8, 0.1)
	a := d.AsCSR()
	forms := testmatrix.Forms(t, a, d.B, 32) // 8 shards vs the 2-shard cache
	opt := lassoOpts()

	seqRef, err := core.Lasso(a.ToCSC(), d.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRef.History) == 0 {
		t.Fatal("reference produced no trajectory")
	}
	distRef, err := dist.Lasso(a, d.B, opt, dist.Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range forms {
		f := f
		// Sequential: bitwise against the in-memory sparse run, full
		// trajectory — the cross-representation bitwise contract. A
		// stored zero adds an exact ±0 to a sum already started from
		// +0, so the dense form keeps the sparse form's bits too.
		t.Run(f.Name+"/sequential", func(t *testing.T) {
			res, err := core.Lasso(f.Col, d.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertLassoBitwise(t, res, seqRef)
		})
		// Multicore: bitwise too — parallel kernels preserve summation
		// order; streamed forms degrade to sequential kernels, which is
		// the same bits by the row above.
		t.Run(f.Name+"/multicore", func(t *testing.T) {
			o := opt
			o.Exec = core.Exec{Backend: core.BackendMulticore, Workers: 3}
			res, err := core.Lasso(f.Col, d.B, o)
			if err != nil {
				t.Fatal(err)
			}
			assertLassoBitwise(t, res, seqRef)
		})
		// Simulated cluster and hybrid rank×thread: bitwise against the
		// distributed reference — block loaders must not change the
		// arithmetic, and neither must intra-rank threading.
		if f.Source != nil {
			t.Run(f.Name+"/simulated", func(t *testing.T) {
				res, err := dist.LassoFrom(f.Source, d.B, opt, dist.Options{P: 3})
				if err != nil {
					t.Fatal(err)
				}
				if res.Objective != distRef.Objective {
					t.Fatalf("objective %.17g != %.17g", res.Objective, distRef.Objective)
				}
				testmatrix.SameFloats(t, "X", res.X, distRef.X)
			})
			t.Run(f.Name+"/hybrid", func(t *testing.T) {
				res, err := dist.LassoFrom(f.Source, d.B, opt, dist.Options{P: 3, RankWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if res.Objective != distRef.Objective {
					t.Fatalf("objective %.17g != %.17g", res.Objective, distRef.Objective)
				}
				testmatrix.SameFloats(t, "X", res.X, distRef.X)
			})
		}
	}
}

func assertLassoBitwise(t *testing.T, got, want *core.LassoResult) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history lengths %d vs %d", len(got.History), len(want.History))
	}
	for k := range want.History {
		if got.History[k].Value != want.History[k].Value {
			t.Fatalf("trajectory diverges at point %d (iter %d): %.17g != %.17g",
				k, want.History[k].Iter, got.History[k].Value, want.History[k].Value)
		}
	}
	if got.Objective != want.Objective {
		t.Fatalf("objective %.17g != %.17g", got.Objective, want.Objective)
	}
	testmatrix.SameFloats(t, "X", got.X, want.X)
}

// TestParityMatrixSVM runs the dual-CD SVM over every dataset form ×
// backend cell (row access).
func TestParityMatrixSVM(t *testing.T) {
	d := datagen.Classification("parity-svm", 23, 256, 48, 0.15, 0.05)
	a := d.AsCSR()
	forms := testmatrix.Forms(t, a, d.B, 32)
	opt := svmOpts()

	seqRef, err := core.SVM(a, d.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	distRef, err := dist.SVM(a, d.B, opt, dist.Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range forms {
		f := f
		t.Run(f.Name+"/sequential", func(t *testing.T) {
			res, err := core.SVM(f.Row, d.B, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSVMBitwise(t, res, seqRef)
		})
		t.Run(f.Name+"/multicore", func(t *testing.T) {
			o := opt
			o.Exec = core.Exec{Backend: core.BackendMulticore, Workers: 3}
			res, err := core.SVM(f.Row, d.B, o)
			if err != nil {
				t.Fatal(err)
			}
			assertSVMBitwise(t, res, seqRef)
		})
		if f.Source != nil {
			t.Run(f.Name+"/simulated", func(t *testing.T) {
				res, err := dist.SVMFrom(f.Source, d.B, opt, dist.Options{P: 3})
				if err != nil {
					t.Fatal(err)
				}
				if res.Gap != distRef.Gap {
					t.Fatalf("gap %.17g != %.17g", res.Gap, distRef.Gap)
				}
				testmatrix.SameFloats(t, "X", res.X, distRef.X)
			})
			t.Run(f.Name+"/hybrid", func(t *testing.T) {
				res, err := dist.SVMFrom(f.Source, d.B, opt, dist.Options{P: 3, RankWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if res.Gap != distRef.Gap {
					t.Fatalf("gap %.17g != %.17g", res.Gap, distRef.Gap)
				}
				testmatrix.SameFloats(t, "X", res.X, distRef.X)
			})
		}
	}
}

func assertSVMBitwise(t *testing.T, got, want *core.SVMResult) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("history lengths %d vs %d", len(got.History), len(want.History))
	}
	for k := range want.History {
		if got.History[k].Gap != want.History[k].Gap || got.History[k].Primal != want.History[k].Primal {
			t.Fatalf("gap trajectory diverges at point %d", k)
		}
	}
	if got.Gap != want.Gap {
		t.Fatalf("gap %.17g != %.17g", got.Gap, want.Gap)
	}
	testmatrix.SameFloats(t, "X", got.X, want.X)
}

// TestParityStreamedConversionCounters closes the loop on the matrix's
// layout promise at harness level, in both directions: each task has its
// layout, and a solve over it never converts a shard. Re-run one
// sequential cell per task × layout and assert the counter split — a
// Lasso solve (column access) converts nothing on a CSC store and every
// shard load on a CSR one; an SVM solve (row access) converts nothing on
// a CSR store and does convert on a CSC one.
func TestParityStreamedConversionCounters(t *testing.T) {
	reg := datagen.Regression("parity-conv", 29, 192, 48, 0.12, 6, 0.1)
	cls := datagen.Classification("parity-conv-svm", 31, 192, 48, 0.12, 0.05)
	for _, task := range []struct {
		name  string
		own   stream.Layout // the layout the task reads natively
		forms []testmatrix.Form
		solve func(f testmatrix.Form) error
	}{
		{"lasso", stream.LayoutCSC, testmatrix.Forms(t, reg.AsCSR(), reg.B, 32),
			func(f testmatrix.Form) error { _, err := core.Lasso(f.Col, reg.B, lassoOpts()); return err }},
		{"svm", stream.LayoutCSR, testmatrix.Forms(t, cls.AsCSR(), cls.B, 32),
			func(f testmatrix.Form) error { _, err := core.SVM(f.Row, cls.B, svmOpts()); return err }},
	} {
		for _, f := range task.forms {
			if f.Dataset == nil {
				continue
			}
			if err := task.solve(f); err != nil {
				t.Fatal(err)
			}
			st := f.Dataset.CacheStats()
			if native := f.Dataset.Layout() == task.own; native != (st.Conversions == 0) {
				t.Fatalf("%s on %s: %d conversions, native layout %t (%+v)", task.name, f.Name, st.Conversions, native, st)
			}
			// Lasso's passes are sequential, so every load is consumed by
			// one miss; the SVM's sampled rows make no such promise.
			if task.name == "lasso" && st.Loads > st.Misses+1 {
				t.Fatalf("%s: prefetch double-read (%+v)", f.Name, st)
			}
		}
	}
}
