package core_test

import (
	"bytes"
	"math"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/dist"
	"saco/internal/libsvm"
	"saco/internal/stream"
)

// TestSABackendCellsGolden pins one accelerated s = 16 Lasso solve over
// the two backends that thread the batch's sums differently from the
// in-memory matrix: three simulated ranks, each reducing its row block's
// Gram and products, and a column-major store streamed in 32-row
// shards. The three ranks also run the plain solver at s = 1. The problem is golden_test.go's testProblem(1); 302
// iterations leave a partial last batch and every track falls inside a
// batch.
func TestSABackendCellsGolden(t *testing.T) {
	core.SkipUnlessAMD64(t)
	d := datagen.Regression("test", 1, 120, 80, 0.15, 6, 0.02)
	a := d.CSR
	opt := core.LassoOptions{
		Lambda: 0.1 * core.LambdaMaxL1(a.ToCSC(), d.B), BlockSize: 4, Iters: 302, S: 16,
		Accelerated: true, Seed: 11, TrackEvery: 50,
	}
	check := func(name string, obj float64, x, history []float64, want [3]uint64) {
		t.Helper()
		got := [3]uint64{math.Float64bits(obj), core.FoldBits(core.FNVOffset, x...), core.FoldBits(core.FNVOffset, history...)}
		if got != want {
			t.Errorf("%s: got %#016x, recorded %#016x", name, got, want)
		}
	}

	dr, err := dist.Lasso(a, d.B, opt, dist.Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	var trace []float64
	for _, p := range dr.Trace {
		trace = append(trace, p.Value)
	}
	check("dist P=3 sim", dr.Objective, dr.X, trace, [3]uint64{0x40280f1d4f80dfe7, 0x51c746c6eb9adaa0, 0xeb7150eb4100b31a})

	// The same cluster runs the plain solver at s = 1: every batch still
	// reduces its block's Gram, as no rank's own block Gram is the sum.
	s1 := opt
	s1.S, s1.Accelerated = 1, false
	dr, err = dist.Lasso(a, d.B, s1, dist.Options{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	trace = trace[:0]
	for _, p := range dr.Trace {
		trace = append(trace, p.Value)
	}
	check("dist P=3 sim s=1", dr.Objective, dr.X, trace, [3]uint64{0x4027c4e1b8b12a6a, 0x91bb5f9b16c5c7e6, 0xdb5e26f64e4566e4})

	var text bytes.Buffer
	if err := libsvm.Write(&text, a, d.B); err != nil {
		t.Fatal(err)
	}
	ds, err := stream.Build(&text, t.TempDir(), stream.BuildOptions{BlockRows: 32, Features: a.N, Layout: stream.LayoutCSC})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	sr, err := core.Lasso(ds.Cols(), ds.B, opt)
	if err != nil {
		t.Fatal(err)
	}
	trace = trace[:0]
	for _, p := range sr.History {
		trace = append(trace, p.Value)
	}
	// The streamed Gram is the in-memory one bit for bit, so this cell
	// repeats TestSALassoGolden's {true, 4, 16} row.
	check("streamed CSC", sr.Objective, sr.X, trace, [3]uint64{0x40280f1d4f80dfe8, 0xac2e1411bb5ba9a1, 0x132abc33cc96412c})
}
