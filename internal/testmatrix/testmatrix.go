// Package testmatrix enumerates the dataset forms of the ROADMAP
// determinism matrix so parity tests can run every execution backend
// (sequential, multicore, simulated, hybrid rank×thread) over
// every data representation (in-memory CSR/CSC, the same matrix with
// every entry stored, and streamed stores in each layout) from one
// table-driven loop. It is a test-support package: production code must
// not import it.
//
// The matrix contract it encodes:
//
//   - sequential, multicore, simulated and hybrid runs are bitwise
//     deterministic — identical trajectories whatever form the data
//     takes;
//   - streamed forms run their kernels sequentially under every local
//     backend knob, so multicore requests degrade to (bitwise-equal)
//     sequential execution.
package testmatrix

import (
	"bytes"
	"fmt"
	"testing"

	"saco/internal/core"
	"saco/internal/dist"
	"saco/internal/libsvm"
	"saco/internal/sparse"
	"saco/internal/stream"
)

// Form is one dataset representation under test, with every view a
// backend could need. Views that a form cannot provide are nil.
type Form struct {
	// Name labels the subtest (e.g. "stream-csc-raw-copy").
	Name string
	// Col is the column-access view (Lasso family).
	Col core.ColMatrix
	// Row is the row-access view (SVM family).
	Row core.RowMatrix
	// Source feeds the simulated cluster's block loaders.
	Source dist.Source
	// Dataset is the backing store of streamed forms (counter
	// assertions); nil for in-memory forms.
	Dataset *stream.Dataset
}

// Forms materializes every representation of (a, b): the in-memory
// sparse pair, the dense pair (a with its zeros stored, so every row
// and column is a full operand of the Gram), and one streamed store per
// layout (each ingested from the same LIBSVM rendering of a, with
// labels verified bitwise). Streamed stores live in tb.TempDir and close on cleanup.
// Their names carry "raw", the one shard encoding, and end in "-copy",
// after the one shard read path.
func Forms(tb testing.TB, a *sparse.CSR, b []float64, blockRows int) []Form {
	tb.Helper()
	dense := storeAll(a)
	forms := []Form{
		{
			Name: "inmem-sparse", Col: a.ToCSC(), Row: a,
			Source: dist.CSRSource{A: a},
		},
		{
			Name: "inmem-dense", Col: dense.ToCSC(), Row: dense,
			Source: dist.CSRSource{A: dense},
		},
	}
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, a, b); err != nil {
		tb.Fatal(err)
	}
	text := buf.Bytes()
	for _, layout := range []stream.Layout{stream.LayoutCSR, stream.LayoutCSC} {
		ds, err := stream.Build(bytes.NewReader(text), tb.TempDir(), stream.BuildOptions{
			BlockRows: blockRows, Features: a.N, Layout: layout,
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(ds.Close)
		if m, n := ds.Dims(); m != a.M || n != a.N {
			tb.Fatalf("streamed store %dx%d, want %dx%d", m, n, a.M, a.N)
		}
		for i := range b {
			if ds.B[i] != b[i] {
				tb.Fatalf("label %d did not survive the text round trip", i)
			}
		}
		forms = append(forms, Form{
			Name:    fmt.Sprintf("stream-%v-raw-copy", layout),
			Col:     ds.Cols(),
			Row:     ds.Rows(),
			Source:  ds,
			Dataset: ds,
		})
	}
	return forms
}

// storeAll returns a with every entry stored: the zeros a leaves out
// become explicit.
func storeAll(a *sparse.CSR) *sparse.CSR {
	rowPtr := make([]int, a.M+1)
	colIdx := make([]int, 0, a.M*a.N)
	val := make([]float64, 0, a.M*a.N)
	for i := 0; i < a.M; i++ {
		p := a.RowPtr[i]
		for j := 0; j < a.N; j++ {
			v := 0.0
			if p < a.RowPtr[i+1] && a.ColIdx[p] == j {
				v = a.Val[p]
				p++
			}
			colIdx = append(colIdx, j)
			val = append(val, v)
		}
		rowPtr[i+1] = len(val)
	}
	return &sparse.CSR{M: a.M, N: a.N, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// TransportKinds enumerates the mpi transports of the ROADMAP backend
// matrix: every deterministic solver configuration must produce bitwise
// identical trajectories over each (the simulated world is the
// reference; the TCP mesh carries the same message DAG over real
// sockets).
func TransportKinds() []dist.Transport {
	return []dist.Transport{dist.TransportSim, dist.TransportTCP}
}

// SameFloats asserts two vectors are bitwise identical, the comparison
// of every cell of the matrix.
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
