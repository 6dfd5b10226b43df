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

	"saco/internal/mat"
	"saco/internal/rng"
	"saco/internal/sparse"
)

// Dataset is one generated problem instance. Exactly one of CSR and Dense
// is non-nil.
type Dataset struct {
	Name  string
	CSR   *sparse.CSR
	Dense *mat.Dense
	B     []float64 // regression targets or ±1 classification labels
	XTrue []float64 // planted model, when applicable
}

// Dims returns (rows, columns).
func (d *Dataset) Dims() (int, int) {
	if d.CSR != nil {
		return d.CSR.Dims()
	}
	return d.Dense.R, d.Dense.C
}

// NNZ returns the number of stored nonzeros.
func (d *Dataset) NNZ() int {
	if d.CSR != nil {
		return d.CSR.NNZ()
	}
	n := 0
	for _, v := range d.Dense.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Density returns NNZ/(m·n).
func (d *Dataset) Density() float64 {
	m, n := d.Dims()
	if m == 0 || n == 0 {
		return 0
	}
	return float64(d.NNZ()) / (float64(m) * float64(n))
}

// Cols returns a column-access view for the Lasso solvers.
func (d *Dataset) Cols() ColView {
	if d.CSR != nil {
		return d.CSR.ToCSC()
	}
	return sparse.DenseCols{A: d.Dense}
}

// Rows returns a row-access view for the SVM solvers.
func (d *Dataset) Rows() RowView {
	if d.CSR != nil {
		return d.CSR
	}
	return sparse.DenseRows{A: d.Dense}
}

// AsCSR returns the data as CSR regardless of storage (densifying if
// needed); used by the distributed partitioners and the LIBSVM writer.
func (d *Dataset) AsCSR() *sparse.CSR {
	if d.CSR != nil {
		return d.CSR
	}
	return sparse.FromDense(d.Dense)
}

// ColView is the column-access interface produced by Cols. It matches
// core.ColMatrix structurally; declared here to avoid importing core.
type ColView interface {
	Dims() (int, int)
	ColNormSq(j int) float64
	ColTMulVec(cols []int, v []float64, dst []float64)
	ColMulAdd(cols []int, coef []float64, v []float64)
	ColGram(cols []int, dst *mat.Dense)
	MulVec(x, y []float64)
}

// RowView is the row-access interface produced by Rows.
type RowView interface {
	Dims() (int, int)
	RowNormSq(i int) float64
	RowMulVec(rows []int, x []float64, dst []float64)
	RowTAxpy(row int, alpha float64, x []float64)
	RowGram(rows []int, dst *mat.Dense)
	MulVec(x, y []float64)
}

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

func denseMatrix(r *rng.Stream, m, n int) *mat.Dense {
	d := mat.NewDense(m, n)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	return d
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
	a := sparseMatrix(r, m, n, density)
	x := plantSparse(r, n, k)
	b := make([]float64, m)
	a.MulVec(x, b)
	for i := range b {
		b[i] += sigma * r.NormFloat64()
	}
	return &Dataset{Name: name, CSR: a, B: b, XTrue: x}
}

// DenseRegression is Regression with dense storage (epsilon- and leu-like
// workloads).
func DenseRegression(name string, seed uint64, m, n, k int, sigma float64) *Dataset {
	r := rng.New(seed)
	a := denseMatrix(r, m, n)
	x := plantSparse(r, n, k)
	b := make([]float64, m)
	// Row-partitioned with each row dot in sequential order, so replica
	// content does not depend on the pool width while the big dense
	// replicas (epsilon, gisette) generate at pool speed.
	mat.GemvParallel(1, a, x, 0, b)
	for i := range b {
		b[i] += sigma * r.NormFloat64()
	}
	return &Dataset{Name: name, Dense: a, B: b, XTrue: x}
}

// Classification generates a sparse design with labels
// b_i = sign(A_i·w* + σ·ε): the linear SVM workload. Both classes are
// guaranteed non-empty (flipping the first two labels if necessary).
func Classification(name string, seed uint64, m, n int, density float64, sigma float64) *Dataset {
	r := rng.New(seed)
	a := sparseMatrix(r, m, n, density)
	d := &Dataset{Name: name, CSR: a}
	d.XTrue = planteMargins(r, a.MulVec, m, n, sigma, &d.B)
	return d
}

// DenseClassification is Classification with dense storage (gisette-,
// duke- and leu-like workloads).
func DenseClassification(name string, seed uint64, m, n int, sigma float64) *Dataset {
	r := rng.New(seed)
	a := denseMatrix(r, m, n)
	d := &Dataset{Name: name, Dense: a}
	mul := func(x, y []float64) { mat.GemvParallel(1, a, x, 0, y) }
	d.XTrue = planteMargins(r, mul, m, n, sigma, &d.B)
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
