// Package testmatrix enumerates the dataset forms of the ROADMAP
// determinism matrix so parity tests can run every execution backend
// (sequential, multicore, simulated, hybrid rank×thread, async) over
// every data representation (in-memory CSR/CSC, dense views, and
// streamed stores in each layout × codec × read mode) from one
// table-driven loop. It is a test-support package: production code must
// not import it.
//
// The matrix contract it encodes:
//
//   - sequential, multicore, simulated and hybrid runs are bitwise
//     deterministic — identical trajectories whatever form the data
//     takes;
//   - async (HOGWILD!) runs are tolerance-convergent (1e-6-relative
//     objective against the sequential optimum) and only exist for the
//     in-memory forms, which provide atomic kernels;
//   - streamed forms run their kernels sequentially under every local
//     backend knob, so multicore requests degrade to (bitwise-equal)
//     sequential execution and async requests are rejected.
package testmatrix

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"saco/internal/core"
	"saco/internal/dist"
	"saco/internal/libsvm"
	"saco/internal/simd"
	"saco/internal/sparse"
	"saco/internal/stream"
)

// Form is one dataset representation under test, with every view a
// backend could need. Views that a form cannot provide are nil.
type Form struct {
	// Name labels the subtest (e.g. "stream-csc-delta-mmap").
	Name string
	// Col is the column-access view (Lasso family).
	Col core.ColMatrix
	// Row is the row-access view (SVM family).
	Row core.RowMatrix
	// Source feeds the simulated cluster's block loaders; nil when the
	// form cannot back a distributed run (dense views).
	Source dist.Source
	// Async reports whether the form provides the atomic kernels
	// BackendAsync needs; async solves over !Async forms must error.
	Async bool
	// Dataset is the backing store of streamed forms (counter
	// assertions); nil for in-memory forms.
	Dataset *stream.Dataset
}

// Streamed reports whether the form is an out-of-core store.
func (f Form) Streamed() bool { return f.Dataset != nil }

// layoutCodecModes is the streamed cross-product: every spill layout ×
// section codec × shard read mode.
var layoutCodecModes = []struct {
	layout stream.Layout
	codec  stream.Codec
	mode   stream.ReadMode
}{
	{stream.LayoutCSR, stream.CodecRaw, stream.ReadCopy},
	{stream.LayoutCSR, stream.CodecRaw, stream.ReadMmap},
	{stream.LayoutCSR, stream.CodecDelta, stream.ReadCopy},
	{stream.LayoutCSR, stream.CodecDelta, stream.ReadMmap},
	{stream.LayoutCSC, stream.CodecRaw, stream.ReadCopy},
	{stream.LayoutCSC, stream.CodecRaw, stream.ReadMmap},
	{stream.LayoutCSC, stream.CodecDelta, stream.ReadCopy},
	{stream.LayoutCSC, stream.CodecDelta, stream.ReadMmap},
}

// Forms materializes every representation of (a, b): the in-memory
// sparse pair, the dense views, and one streamed store per layout ×
// codec × read mode (each ingested from the same LIBSVM rendering of a,
// with labels verified bitwise). Streamed stores live in tb.TempDir and
// close on cleanup.
func Forms(tb testing.TB, a *sparse.CSR, b []float64, blockRows int) []Form {
	tb.Helper()
	dense := a.ToDense()
	forms := []Form{
		{
			Name: "inmem-sparse", Col: a.ToCSC(), Row: a,
			Source: dist.CSRSource{A: a}, Async: true,
		},
		{
			Name: "inmem-dense",
			Col:  sparse.DenseCols{A: dense}, Row: sparse.DenseRows{A: dense},
			Async: true,
		},
	}
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, a, b); err != nil {
		tb.Fatal(err)
	}
	text := buf.Bytes()
	for _, lcm := range layoutCodecModes {
		ds, err := stream.Build(bytes.NewReader(text), tb.TempDir(), stream.BuildOptions{
			BlockRows: blockRows, Features: a.N, Layout: lcm.layout, Codec: lcm.codec,
		})
		if err != nil {
			tb.Fatal(err)
		}
		ds.SetReadMode(lcm.mode)
		tb.Cleanup(func() { ds.Close() })
		if m, n := ds.Dims(); m != a.M || n != a.N {
			tb.Fatalf("streamed store %dx%d, want %dx%d", m, n, a.M, a.N)
		}
		for i := range b {
			if ds.B[i] != b[i] {
				tb.Fatalf("label %d did not survive the text round trip", i)
			}
		}
		forms = append(forms, Form{
			Name:    fmt.Sprintf("stream-%v-%v-%v", lcm.layout, lcm.codec, lcm.mode),
			Col:     ds.Cols(),
			Row:     ds.Rows(),
			Source:  ds,
			Dataset: ds,
		})
	}
	return forms
}

// KernelSets enumerates the kernel-set dimension of the matrix: every
// deterministic solver configuration must produce bitwise identical
// trajectories under each internal/simd dispatch set (scalar is the
// reference; where the CPU supports it, avx2 must reproduce it exactly).
func KernelSets() []string { return simd.Names() }

// WithKernelSet switches the process-wide kernel dispatch to the named
// set for the duration of the test, restoring the previous set on
// cleanup. Tests that use it cannot run in parallel with each other —
// dispatch is process-wide by design.
func WithKernelSet(tb testing.TB, name string) {
	tb.Helper()
	prev := simd.Active().Name()
	if err := simd.Use(name); err != nil {
		tb.Fatalf("switching kernel set: %v", err)
	}
	tb.Cleanup(func() {
		if err := simd.Use(prev); err != nil {
			tb.Fatalf("restoring kernel set %q: %v", prev, err)
		}
	})
}

// TransportKinds enumerates the mpi transports of the ROADMAP backend
// matrix: every deterministic solver configuration must produce bitwise
// identical trajectories over each (the simulated world is the
// reference; the TCP mesh carries the same message DAG over real
// sockets).
func TransportKinds() []dist.Transport {
	return []dist.Transport{dist.TransportSim, dist.TransportTCP}
}

// SameFloats asserts two vectors are bitwise identical (the matrix's
// deterministic cells).
func SameFloats(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s[%d]: %.17g != %.17g", what, i, got[i], want[i])
		}
	}
}

// RelDiff returns |x−y| / max(|x|, |y|, 1), the tolerance metric of the
// matrix's async cells.
func RelDiff(x, y float64) float64 {
	d := math.Abs(x - y)
	scale := math.Max(math.Max(math.Abs(x), math.Abs(y)), 1)
	return d / scale
}
