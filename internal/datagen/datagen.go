// Package datagen generates the synthetic stand-ins for the LIBSVM
// datasets of the paper's Tables II and IV. The original files (url,
// news20, covtype, epsilon, leu, w1a, duke, rcv1, gisette) cannot be
// downloaded in this offline environment, so each replica reproduces the
// properties the experiments actually depend on: the m×n shape (scaled
// where the original would not fit on one machine), the nonzero density f
// that drives the flop and bandwidth terms of Table I, dense vs sparse
// storage, and a planted model that makes the optimization problems
// well-posed and learnable.
package datagen

import (
	"fmt"
	"math"

	"saco/internal/rng"
	"saco/internal/sparse"
)

// Dataset is one generated problem instance, sparse or dense, in one
// storage form: a dense replica is a CSR that stores every entry.
type Dataset struct {
	Name  string
	CSR   *sparse.CSR
	B     []float64 // regression targets or ±1 classification labels
	XTrue []float64 // planted model, when applicable
}

// Dims returns (rows, columns).
func (d *Dataset) Dims() (int, int) { return d.CSR.Dims() }

// NNZ returns the number of stored entries.
func (d *Dataset) NNZ() int { return d.CSR.NNZ() }

// Density returns NNZ/(m·n).
func (d *Dataset) Density() float64 { return d.CSR.Density() }

// Cols returns the data in column form for the Lasso solvers.
func (d *Dataset) Cols() *sparse.CSC { return d.CSR.ToCSC() }

// Rows returns the data in row form for the SVM solvers.
func (d *Dataset) Rows() *sparse.CSR { return d.CSR }

// AsCSR returns the data as CSR; used by the distributed partitioners
// and the LIBSVM writer.
func (d *Dataset) AsCSR() *sparse.CSR { return d.CSR }

// sparseMatrix draws a sparse matrix with ~density·n nonzeros per row at
// uniformly random columns, values N(0,1) — the standard synthetic sparse
// design. Every row gets at least one nonzero so no data point is empty.
func sparseMatrix(r *rng.Stream, m, n int, density float64) *sparse.CSR {
	rowNNZ := int(math.Round(density * float64(n)))
	if rowNNZ < 1 {
		rowNNZ = 1
	}
	if rowNNZ > n {
		rowNNZ = n
	}
	rowPtr := make([]int, m+1)
	colIdx := make([]int, 0, m*rowNNZ)
	vals := make([]float64, 0, m*rowNNZ)
	for i := 0; i < m; i++ {
		cols := r.SampleK(n, rowNNZ)
		insertionSortInts(cols)
		for _, c := range cols {
			colIdx = append(colIdx, c)
			vals = append(vals, r.NormFloat64())
		}
		rowPtr[i+1] = len(vals)
	}
	return &sparse.CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
}

// denseMatrix draws an m×n matrix that stores every entry, values
// N(0,1) in row-major order — the dense replicas.
func denseMatrix(r *rng.Stream, m, n int) *sparse.CSR {
	rowPtr := make([]int, m+1)
	colIdx := make([]int, m*n)
	vals := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			colIdx[i*n+j] = j
			vals[i*n+j] = r.NormFloat64()
		}
		rowPtr[i+1] = (i + 1) * n
	}
	return &sparse.CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
}

// plantSparse returns a k-sparse coefficient vector with N(0,1) entries on
// a random support.
func plantSparse(r *rng.Stream, n, k int) []float64 {
	x := make([]float64, n)
	for _, j := range r.SampleK(n, k) {
		x[j] = r.NormFloat64()
	}
	return x
}

// Regression generates a sparse design with targets b = A·x* + σ·ε for a
// k-sparse planted x*: the proximal least-squares (Lasso) workload.
func Regression(name string, seed uint64, m, n int, density float64, k int, sigma float64) *Dataset {
	r := rng.New(seed)
	return regression(name, r, sparseMatrix(r, m, n, density), k, sigma)
}

// DenseRegression is Regression with every entry stored (epsilon- and
// leu-like workloads).
func DenseRegression(name string, seed uint64, m, n, k int, sigma float64) *Dataset {
	r := rng.New(seed)
	return regression(name, r, denseMatrix(r, m, n), k, sigma)
}

// regression plants a k-sparse x* and draws b = A·x* + σ·ε from r.
func regression(name string, r *rng.Stream, a *sparse.CSR, k int, sigma float64) *Dataset {
	x := plantSparse(r, a.N, k)
	b := make([]float64, a.M)
	a.MulVec(x, b)
	for i := range b {
		b[i] += sigma * r.NormFloat64()
	}
	return &Dataset{Name: name, CSR: a, B: b, XTrue: x}
}

// Classification generates a sparse design with labels
// b_i = sign(A_i·w* + σ·ε): the linear SVM workload. Both classes are
// guaranteed non-empty (flipping the first two labels if necessary).
func Classification(name string, seed uint64, m, n int, density float64, sigma float64) *Dataset {
	r := rng.New(seed)
	return classification(name, r, sparseMatrix(r, m, n, density), sigma)
}

// DenseClassification is Classification with every entry stored
// (gisette-, duke- and leu-like workloads).
func DenseClassification(name string, seed uint64, m, n int, sigma float64) *Dataset {
	r := rng.New(seed)
	return classification(name, r, denseMatrix(r, m, n), sigma)
}

// classification plants a separator and draws the ±1 labels from r.
func classification(name string, r *rng.Stream, a *sparse.CSR, sigma float64) *Dataset {
	d := &Dataset{Name: name, CSR: a}
	d.XTrue = planteMargins(r, a.MulVec, a.M, a.N, sigma, &d.B)
	return d
}

func planteMargins(r *rng.Stream, mulVec func(x, y []float64), m, n int, sigma float64, bOut *[]float64) []float64 {
	w := make([]float64, n)
	for j := range w {
		w[j] = r.NormFloat64() / math.Sqrt(float64(n))
	}
	margins := make([]float64, m)
	mulVec(w, margins)
	b := make([]float64, m)
	pos := 0
	for i, v := range margins {
		v += sigma * r.NormFloat64()
		if v >= 0 {
			b[i] = 1
			pos++
		} else {
			b[i] = -1
		}
	}
	// Guarantee both classes exist.
	if pos == 0 {
		b[0] = 1
	} else if pos == m {
		b[0] = -1
	}
	*bOut = b
	return w
}

func insertionSortInts(x []int) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// replicaSpec describes a named dataset replica at unit scale.
type replicaSpec struct {
	m, n    int // scaled-down default dimensions
	origM   int // the original LIBSVM dimensions, for documentation
	origN   int
	density float64 // matches the paper's NNZ% column
	dense   bool
	class   bool // classification (SVM) vs regression (Lasso)
}

// replicas: the paper's Tables II (Lasso) and IV (SVM). Dimensions are
// scaled so a full experiment sweep runs in seconds on one machine; the
// density column is preserved exactly because it, not the raw size,
// drives the computation/communication tradeoff under study.
var replicas = map[string]replicaSpec{
	// Table II (Lasso).
	"url":     {m: 30000, n: 40000, origM: 2396130, origN: 3231961, density: 0.000036},
	"news20":  {m: 8000, n: 31000, origM: 15935, origN: 62061, density: 0.0013},
	"covtype": {m: 58000, n: 54, origM: 581012, origN: 54, density: 0.22},
	"epsilon": {m: 4000, n: 500, origM: 400000, origN: 2000, density: 1, dense: true},
	"leu":     {m: 38, n: 7129, origM: 38, origN: 7129, density: 1, dense: true},
	// Table IV (SVM). The paper's table swaps features/points for the
	// binary sets; these replicas use (points m, features n).
	"w1a":           {m: 300, n: 2477, origM: 300, origN: 2477, density: 0.04, class: true},
	"leu.binary":    {m: 38, n: 7129, origM: 38, origN: 7129, density: 1, dense: true, class: true},
	"duke":          {m: 44, n: 7129, origM: 44, origN: 7129, density: 1, dense: true, class: true},
	"news20.binary": {m: 8000, n: 20000, origM: 19996, origN: 1355191, density: 0.0003, class: true},
	"rcv1.binary":   {m: 10000, n: 24000, origM: 20242, origN: 47236, density: 0.0016, class: true},
	"gisette":       {m: 1000, n: 1200, origM: 6000, origN: 5000, density: 0.99, dense: true, class: true},
}

// ReplicaNames lists the available named replicas in a fixed order.
func ReplicaNames() []string {
	return []string{
		"url", "news20", "covtype", "epsilon", "leu",
		"w1a", "leu.binary", "duke", "news20.binary", "rcv1.binary", "gisette",
	}
}

// ReplicaInfo returns the scaled (m, n) and original (origM, origN) shapes
// plus density of the named replica, for the Table II/IV summaries.
func ReplicaInfo(name string) (m, n, origM, origN int, density float64, err error) {
	spec, ok := replicas[name]
	if !ok {
		return 0, 0, 0, 0, 0, fmt.Errorf("datagen: unknown replica %q", name)
	}
	return spec.m, spec.n, spec.origM, spec.origN, spec.density, nil
}

// Replica generates the named dataset stand-in. scale multiplies both
// dimensions (1 = the scaled defaults above; use smaller values for quick
// tests). Seeds are fixed per name so experiments are reproducible.
func Replica(name string, scale float64, seed uint64) (*Dataset, error) {
	spec, ok := replicas[name]
	if !ok {
		return nil, fmt.Errorf("datagen: unknown replica %q (have %v)", name, ReplicaNames())
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("datagen: scale must be finite and positive, got %v", scale)
	}
	m := maxInt(4, int(float64(spec.m)*scale))
	n := maxInt(4, int(float64(spec.n)*scale))
	k := maxInt(2, n/20) // planted support: 5% of features
	const sigma = 0.1
	switch {
	case spec.class && spec.dense:
		return DenseClassification(name, seed, m, n, sigma), nil
	case spec.class:
		return Classification(name, seed, m, n, spec.density, sigma), nil
	case spec.dense:
		return DenseRegression(name, seed, m, n, k, sigma), nil
	default:
		return Regression(name, seed, m, n, spec.density, k, sigma), nil
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
