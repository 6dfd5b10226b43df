package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"saco/internal/mat"
)

// randCSR builds a random m-by-n sparse matrix with the given density.
func randCSR(rng *rand.Rand, m, n int, density float64) *CSR {
	coo := NewCOO(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// storeAll returns a with every entry stored: the zeros a leaves out
// become explicit, so each of its rows and columns is a full operand.
func storeAll(a *CSR) *CSR {
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
	return &CSR{M: a.M, N: a.N, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestCOOBuildAndDuplicates(t *testing.T) {
	coo := NewCOO(2, 3)
	coo.Add(0, 1, 2)
	coo.Add(0, 1, 3) // duplicate: summed
	coo.Add(1, 0, -1)
	coo.Add(1, 2, 0) // explicit zero: dropped
	a := coo.ToCSR()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	d := a.ToDense()
	if d.At(0, 1) != 5 || d.At(1, 0) != -1 || d.At(1, 2) != 0 {
		t.Fatalf("dense = %v", d.Data)
	}
}

func TestCOODuplicateCancellation(t *testing.T) {
	coo := NewCOO(1, 1)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, -1)
	if nnz := coo.ToCSR().NNZ(); nnz != 0 {
		t.Fatalf("cancelled duplicate kept: NNZ = %d", nnz)
	}
}

// TestNewCSRValidation: NewCSR refuses each malformed shape, and Check
// on the same matrix built as a value gives the same verdict.
func TestNewCSRValidation(t *testing.T) {
	for _, tc := range []struct {
		name           string
		m, n           int
		rowPtr, colIdx []int
		val            []float64
		bad            bool
	}{
		{"rowPtr length", 2, 2, []int{0, 1}, []int{0}, []float64{1}, true},
		{"colIdx/val lengths", 1, 2, []int{0, 1}, []int{0}, []float64{1, 2}, true},
		{"rowPtr bounds", 1, 2, []int{0, 2}, []int{0}, []float64{1}, true},
		{"rowPtr not monotone", 3, 2, []int{0, 1, 0, 1}, []int{0}, []float64{1}, true},
		{"rowPtr overshoots nnz and returns", 2, 2, []int{0, 2, 1}, []int{0}, []float64{1}, true},
		{"unsorted columns", 1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 2}, true},
		{"out-of-range column", 1, 2, []int{0, 1}, []int{5}, []float64{1}, true},
		{"negative column", 1, 2, []int{0, 1}, []int{-1}, []float64{1}, true},
		{"valid", 1, 2, []int{0, 1}, []int{0}, []float64{1}, false},
	} {
		a, err := NewCSR(tc.m, tc.n, tc.rowPtr, tc.colIdx, tc.val)
		if (err != nil) != tc.bad {
			t.Fatalf("%s: NewCSR error %v, want error: %v", tc.name, err, tc.bad)
		}
		checked := (&CSR{M: tc.m, N: tc.n, RowPtr: tc.rowPtr, ColIdx: tc.colIdx, Val: tc.val}).Check()
		if fmt.Sprint(checked) != fmt.Sprint(err) {
			t.Fatalf("%s: Check says %v, NewCSR %v", tc.name, checked, err)
		}
		if !tc.bad && (a.M != tc.m || a.N != tc.n || &a.RowPtr[0] != &tc.rowPtr[0]) {
			t.Fatalf("%s: NewCSR returned %+v", tc.name, a)
		}
	}
}

// TestNewCSCValidation is TestNewCSRValidation's twin for NewCSC.
func TestNewCSCValidation(t *testing.T) {
	for _, tc := range []struct {
		name           string
		m, n           int
		colPtr, rowIdx []int
		val            []float64
		bad            bool
	}{
		{"colPtr length", 2, 2, []int{0, 1}, []int{0}, []float64{1}, true},
		{"rowIdx/val lengths", 2, 1, []int{0, 1}, []int{0}, []float64{1, 2}, true},
		{"colPtr bounds", 2, 1, []int{0, 2}, []int{0}, []float64{1}, true},
		{"colPtr not monotone", 2, 3, []int{0, 1, 0, 1}, []int{0}, []float64{1}, true},
		{"colPtr overshoots nnz and returns", 2, 2, []int{0, 2, 1}, []int{0}, []float64{1}, true},
		{"unsorted rows", 2, 1, []int{0, 2}, []int{1, 0}, []float64{1, 2}, true},
		{"out-of-range row", 2, 1, []int{0, 1}, []int{5}, []float64{1}, true},
		{"negative row", 2, 1, []int{0, 1}, []int{-1}, []float64{1}, true},
		{"valid", 2, 1, []int{0, 1}, []int{0}, []float64{1}, false},
	} {
		a, err := NewCSC(tc.m, tc.n, tc.colPtr, tc.rowIdx, tc.val)
		if (err != nil) != tc.bad {
			t.Fatalf("%s: NewCSC error %v, want error: %v", tc.name, err, tc.bad)
		}
		if !tc.bad && (a.M != tc.m || a.N != tc.n || &a.ColPtr[0] != &tc.colPtr[0]) {
			t.Fatalf("%s: NewCSC returned %+v", tc.name, a)
		}
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSR(rng, 20, 15, 0.3)
	d := a.ToDense()
	x := randVec(rng, 15)
	y1 := make([]float64, 20)
	y2 := make([]float64, 20)
	a.MulVec(x, y1)
	for i := range y2 {
		y2[i] = mat.Dot(d.Row(i), x)
	}
	for i := range y1 {
		if !approxEq(y1[i], y2[i], 1e-12) {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y1[i], y2[i])
		}
	}
}

func TestCSRtoCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randCSR(rng, 25, 18, 0.2)
	back := a.ToCSC().ToCSR()
	if mat.MaxAbsDiff(a.ToDense(), back.ToDense()) != 0 {
		t.Fatal("CSR -> CSC -> CSR round trip changed the matrix")
	}
}

func TestCSCOpsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCSR(rng, 30, 12, 0.4)
	c := a.ToCSC()
	d := a.ToDense()
	cols := []int{1, 5, 9}

	// ColTMulVec
	v := randVec(rng, 30)
	dst := make([]float64, 3)
	c.ColTMulVec(cols, v, dst)
	for k, j := range cols {
		var want float64
		for i := 0; i < 30; i++ {
			want += d.At(i, j) * v[i]
		}
		if !approxEq(dst[k], want, 1e-12) {
			t.Fatalf("ColTMulVec[%d] = %v, want %v", k, dst[k], want)
		}
	}

	// ColMulAdd
	coef := []float64{0.5, -2, 1}
	u := randVec(rng, 30)
	uRef := append([]float64(nil), u...)
	c.ColMulAdd(cols, coef, u)
	for i := 0; i < 30; i++ {
		want := uRef[i]
		for k, j := range cols {
			want += d.At(i, j) * coef[k]
		}
		if !approxEq(u[i], want, 1e-12) {
			t.Fatalf("ColMulAdd[%d] = %v, want %v", i, u[i], want)
		}
	}

	// ColGram: the upper triangle against the dense product, the strict
	// lower triangle +0.
	g := mat.NewDense(3, 3)
	c.ColGram(cols, g)
	for p, jp := range cols {
		for q, jq := range cols[p:] {
			var want float64
			for i := 0; i < 30; i++ {
				want += d.At(i, jp) * d.At(i, jq)
			}
			if !approxEq(g.At(p, p+q), want, 1e-12) {
				t.Fatalf("ColGram[%d,%d] = %v, want %v", p, p+q, g.At(p, p+q), want)
			}
		}
	}
	lowerIsPositiveZero(t, "ColGram", g)

	// ColNormSq agrees with the Gram diagonal.
	for p, j := range cols {
		if !approxEq(c.ColNormSq(j), g.At(p, p), 1e-12) {
			t.Fatalf("ColNormSq(%d) = %v, want %v", j, c.ColNormSq(j), g.At(p, p))
		}
	}
}

func TestCSRRowOpsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 14, 40, 0.3)
	d := a.ToDense()
	rows := []int{0, 7, 13, 7} // repeated row allowed (SVM can resample)

	x := randVec(rng, 40)
	dst := make([]float64, len(rows))
	a.RowMulVec(rows, x, dst)
	for k, r := range rows {
		want := mat.Dot(d.Row(r), x)
		if !approxEq(dst[k], want, 1e-12) {
			t.Fatalf("RowMulVec[%d] = %v, want %v", k, dst[k], want)
		}
	}

	g := mat.NewDense(len(rows), len(rows))
	a.RowGram(rows, g)
	for p, rp := range rows {
		for q, rq := range rows[p:] {
			want := mat.Dot(d.Row(rp), d.Row(rq))
			if !approxEq(g.At(p, p+q), want, 1e-12) {
				t.Fatalf("RowGram[%d,%d] = %v, want %v", p, p+q, g.At(p, p+q), want)
			}
		}
	}
	lowerIsPositiveZero(t, "RowGram", g)

	u := randVec(rng, 40)
	uRef := append([]float64(nil), u...)
	a.RowTAxpy(7, 2.5, u)
	for j := 0; j < 40; j++ {
		want := uRef[j] + 2.5*d.At(7, j)
		if !approxEq(u[j], want, 1e-12) {
			t.Fatalf("RowTAxpy[%d] = %v, want %v", j, u[j], want)
		}
	}

	if !approxEq(a.RowNormSq(7), mat.Nrm2Sq(0, d.Row(7)), 1e-12) {
		t.Fatal("RowNormSq mismatch")
	}
}

func TestSliceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randCSR(rng, 17, 9, 0.35)
	d := a.ToDense()
	b := a.SliceRows(5, 12)
	if b.M != 7 || b.N != 9 {
		t.Fatalf("SliceRows dims %dx%d", b.M, b.N)
	}
	bd := b.ToDense()
	for i := 0; i < 7; i++ {
		for j := 0; j < 9; j++ {
			if bd.At(i, j) != d.At(5+i, j) {
				t.Fatalf("SliceRows[%d,%d] mismatch", i, j)
			}
		}
	}
	// Empty slice is valid.
	e := a.SliceRows(4, 4)
	if e.M != 0 || e.NNZ() != 0 {
		t.Fatal("empty row slice not empty")
	}
}

func TestSliceCols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 11, 20, 0.3)
	d := a.ToDense()
	b := a.SliceCols(6, 15)
	if b.M != 11 || b.N != 9 {
		t.Fatalf("SliceCols dims %dx%d", b.M, b.N)
	}
	bd := b.ToDense()
	for i := 0; i < 11; i++ {
		for j := 0; j < 9; j++ {
			if bd.At(i, j) != d.At(i, 6+j) {
				t.Fatalf("SliceCols[%d,%d] mismatch", i, j)
			}
		}
	}
}

func TestSlicePartitionReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randCSR(rng, 23, 13, 0.25)
	x := randVec(rng, 13)
	want := make([]float64, 23)
	a.MulVec(x, want)
	// Row partition: stacking local MulVec results reproduces the global one.
	got := make([]float64, 0, 23)
	for _, cut := range [][2]int{{0, 8}, {8, 16}, {16, 23}} {
		loc := a.SliceRows(cut[0], cut[1])
		y := make([]float64, loc.M)
		loc.MulVec(x, y)
		got = append(got, y...)
	}
	for i := range want {
		if !approxEq(got[i], want[i], 1e-12) {
			t.Fatalf("row-partitioned MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Column partition: summing local row-dot contributions reproduces A·x.
	sum := make([]float64, 23)
	for _, cut := range [][2]int{{0, 5}, {5, 13}} {
		loc := a.SliceCols(cut[0], cut[1])
		y := make([]float64, 23)
		loc.MulVec(x[cut[0]:cut[1]], y)
		mat.Axpy(1, y, sum)
	}
	for i := range want {
		if !approxEq(sum[i], want[i], 1e-12) {
			t.Fatalf("col-partitioned MulVec[%d] = %v, want %v", i, sum[i], want[i])
		}
	}
}

func TestCSRDensity(t *testing.T) {
	a := &CSR{M: 2, N: 2, RowPtr: []int{0, 1, 1}, ColIdx: []int{0}, Val: []float64{1}}
	if a.NNZ() != 1 || a.Density() != 0.25 {
		t.Fatalf("NNZ=%d density=%v", a.NNZ(), a.Density())
	}
	if (&CSR{M: 0, N: 5, RowPtr: []int{0}}).Density() != 0 {
		t.Fatal("empty density")
	}
}

// TestDenseViewDensity: Density counts stored entries over cells, so a
// matrix that stores every entry reports 1 whatever its zeros.
func TestDenseViewDensity(t *testing.T) {
	a, err := NewCSR(4, 5, []int{0, 2, 4, 6, 7}, []int{0, 3, 1, 4, 0, 2, 3}, []float64{1, 2, -3, 0.5, 4, -1, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Density(); d != 7.0/20.0 {
		t.Fatalf("CSR.Density() = %v, want %v", d, 7.0/20.0)
	}
	if d := storeAll(a).Density(); d != 1 {
		t.Fatalf("dense CSR.Density() = %v, want 1", d)
	}
}

// TestDenseViewsMatchSparse: a matrix with every entry stored (its
// zeros explicit, so every row and column is a full operand) computes
// what its sparse form computes.
func TestDenseViewsMatchSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 18, 10, 0.5)
	c := a.ToCSC()
	dr := storeAll(a)
	dc := dr.ToCSC()

	cols := []int{0, 3, 9}
	v := randVec(rng, 18)
	s1 := make([]float64, 3)
	s2 := make([]float64, 3)
	c.ColTMulVec(cols, v, s1)
	dc.ColTMulVec(cols, v, s2)
	for k := range s1 {
		if !approxEq(s1[k], s2[k], 1e-12) {
			t.Fatalf("dense ColTMulVec[%d] mismatch", k)
		}
	}

	g1 := mat.NewDense(3, 3)
	g2 := mat.NewDense(3, 3)
	for i := range g2.Data {
		g2.Data[i] = -7 // the Gram overwrites every entry
	}
	c.ColGram(cols, g1)
	dc.ColGram(cols, g2)
	if mat.MaxAbsDiff(g1, g2) > 1e-12 {
		t.Fatal("dense ColGram mismatch")
	}
	lowerIsPositiveZero(t, "dense ColGram", g2)

	u1 := randVec(rng, 18)
	u2 := append([]float64(nil), u1...)
	coef := []float64{1, -1, 0.5}
	c.ColMulAdd(cols, coef, u1)
	dc.ColMulAdd(cols, coef, u2)
	for i := range u1 {
		if !approxEq(u1[i], u2[i], 1e-12) {
			t.Fatalf("dense ColMulAdd[%d] mismatch", i)
		}
	}

	rows := []int{2, 11}
	x := randVec(rng, 10)
	r1 := make([]float64, 2)
	r2 := make([]float64, 2)
	a.RowMulVec(rows, x, r1)
	dr.RowMulVec(rows, x, r2)
	for k := range r1 {
		if !approxEq(r1[k], r2[k], 1e-12) {
			t.Fatalf("dense RowMulVec[%d] mismatch", k)
		}
	}

	gr1 := mat.NewDense(2, 2)
	gr2 := mat.NewDense(2, 2)
	for i := range gr2.Data {
		gr2.Data[i] = -7
	}
	a.RowGram(rows, gr1)
	dr.RowGram(rows, gr2)
	if mat.MaxAbsDiff(gr1, gr2) > 1e-12 {
		t.Fatal("dense RowGram mismatch")
	}
	lowerIsPositiveZero(t, "dense RowGram", gr2)

	if !approxEq(dc.ColNormSq(3), c.ColNormSq(3), 1e-12) {
		t.Fatal("dense ColNormSq mismatch")
	}
	if !approxEq(dr.RowNormSq(2), a.RowNormSq(2), 1e-12) {
		t.Fatal("dense RowNormSq mismatch")
	}
}

// TestFullRowsMatchGather: CSR.MulVec addresses a full row by index
// (fullDot) where a sparse one is gathered; it must give the bits of
// the gather over indices 0, 1, …. Every-entry-stored matrices
// (fullCSC, storeAll) make every row full, and a mixed matrix puts full
// rows next to sparse ones. Values include stored zeros, −0, ±Inf and
// subnormals.
func TestFullRowsMatchGather(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -1e300}
	spike := func(vals []float64) {
		for i := range vals {
			if rng.Intn(8) == 0 {
				vals[i] = special[rng.Intn(len(special))]
			}
		}
	}
	// mixed takes rows 0 and m/2 from the every-entry-stored form.
	mixed := func(m, n int) *CSR {
		a := randCSR(rng, m, n, 0.3)
		b := storeAll(a)
		rowPtr, colIdx, val := []int{0}, []int(nil), []float64(nil)
		for i := 0; i < m; i++ {
			src := a
			if i == 0 || i == m/2 {
				src = b
			}
			p0, p1 := src.RowPtr[i], src.RowPtr[i+1]
			colIdx = append(colIdx, src.ColIdx[p0:p1]...)
			val = append(val, src.Val[p0:p1]...)
			rowPtr = append(rowPtr, len(val))
		}
		return &CSR{M: m, N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	}
	cases := []struct {
		name string
		r    *CSR
	}{
		{"fullCSC", fullCSC(rng, 40, 12).ToCSR()},
		{"storeAll", storeAll(randCSR(rng, 30, 17, 0.4))},
		{"full next to sparse", mixed(33, 14)},
		{"1x1", fullCSC(rng, 1, 1).ToCSR()},
	}
	for _, tc := range cases {
		r := tc.r
		spike(r.Val)
		x := randVec(rng, r.N)
		spike(x)
		got := make([]float64, r.M)
		r.MulVec(x, got)
		full := 0
		for i := 0; i < r.M; i++ {
			p0, p1 := r.RowPtr[i], r.RowPtr[i+1]
			if p1-p0 == r.N {
				full++
			}
			want := gatherDot(0, r.Val[p0:p1], r.ColIdx[p0:p1], x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: MulVec row %d = %v, want the gather's %v", tc.name, i, got[i], want)
			}
		}
		if full == 0 || tc.name == "full next to sparse" && full == r.M {
			t.Fatalf("%s: %d of %d rows full, the by-index path or its neighbours went untested", tc.name, full, r.M)
		}
	}
}

// TestSequentialRowKernelsAllocateNothing: on a sequential matrix
// RowMulVec and MulVec run inline and build no closure, so a warm call
// allocates nothing — the SVM solvers call RowMulVec once per batch.
func TestSequentialRowKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, a := range []*CSR{randCSR(rng, 60, 40, 0.2), storeAll(randCSR(rng, 20, 10, 0.3))} {
		rows := []int{0, 3, 3, a.M - 1}
		x, y, dst := randVec(rng, a.N), make([]float64, a.M), make([]float64, len(rows))
		if n := testing.AllocsPerRun(50, func() {
			a.RowMulVec(rows, x, dst)
			a.MulVec(x, y)
		}); n != 0 {
			t.Fatalf("%v allocations per sequential RowMulVec + MulVec, want 0", n)
		}
	}
}

// TestSequentialColKernelsAllocateNothing: on a sequential matrix
// ColTMulVec and ColTMulVecAcc run inline and the group's accumulators
// stay on the stack, so a warm call allocates nothing — the s = 1
// solvers call ColTMulVec once per iteration.
func TestSequentialColKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, a := range []*CSC{randCSR(rng, 60, 40, 0.2).ToCSC(), storeAll(randCSR(rng, 20, 10, 0.3)).ToCSC()} {
		cols := []int{0, 3, 3, 1, 2, a.N - 1}
		v, dst := randVec(rng, a.M), make([]float64, len(cols))
		if n := testing.AllocsPerRun(50, func() {
			a.ColTMulVec(cols, v, dst)
			a.ColTMulVecAcc(cols, v, dst)
		}); n != 0 {
			t.Fatalf("%v allocations per sequential ColTMulVec + ColTMulVecAcc, want 0", n)
		}
	}
}

// Property: Gram matrices are symmetric PSD (all Rayleigh quotients >= 0).
func TestColGramPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(20)
		n := 2 + rng.Intn(10)
		a := randCSR(rng, m, n, 0.4)
		c := a.ToCSC()
		k := 1 + rng.Intn(n)
		cols := rng.Perm(n)[:k]
		g := mat.NewDense(k, k)
		c.ColGram(cols, g)
		// Symmetry is by convention (the upper triangle is the matrix);
		// check PSD of the full matrix via random probes.
		g = mirrored(g)
		for probe := 0; probe < 4; probe++ {
			v := randVec(rng, k)
			w := make([]float64, k)
			for i := range w {
				w[i] = mat.Dot(g.Row(i), v)
			}
			if mat.Dot(v, w) < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: xᵀ(Aᵀy) == (Ax)ᵀy — the adjoint identity ties the row
// kernel MulVec to the column kernel ColTMulVec taken over every column.
func TestAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		a := randCSR(rng, m, n, 0.3)
		x := randVec(rng, n)
		y := randVec(rng, m)
		ax := make([]float64, m)
		a.MulVec(x, ax)
		cols := make([]int, n)
		for j := range cols {
			cols[j] = j
		}
		aty := make([]float64, n)
		a.ToCSC().ColTMulVec(cols, y, aty)
		return approxEq(mat.Dot(ax, y), mat.Dot(x, aty), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// oracleToCSC is ToCSC as it was before it converted a row range in
// place: a count and a scatter over the whole of a.
func oracleToCSC(a *CSR) *CSC {
	colPtr := make([]int, a.N+1)
	for _, c := range a.ColIdx {
		colPtr[c+1]++
	}
	for j := 0; j < a.N; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, a.NNZ())
	val := make([]float64, a.NNZ())
	next := make([]int, a.N)
	copy(next, colPtr[:a.N])
	for i := 0; i < a.M; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			rowIdx[p] = i
			val[p] = a.Val[k]
			next[c]++
		}
	}
	return &CSC{M: a.M, N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// TestRowsToCSCMatchesSliceRows: converting a row range in place gives
// the bytes of copying the rows and converting the copy, on random
// ranges — empty, one row, the whole matrix — of matrices with empty
// rows and trailing empty columns, each asked for twice so the second
// answer comes from the memo. The memo cases follow as named inputs.
func TestRowsToCSCMatchesSliceRows(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		m, n := rng.Intn(12), 1+rng.Intn(12)
		a := randCSR(rng, m, n, rng.Float64()*0.5)
		a.N += rng.Intn(3) // trailing empty columns
		ranges := [][2]int{{0, m}, {0, 0}, {m, m}}
		if m > 0 {
			i := rng.Intn(m)
			ranges = append(ranges, [2]int{i, i + 1})
		}
		lo := rng.Intn(m + 1)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(m-lo+1)})
		for _, r := range append(ranges, ranges...) {
			got, want := a.RowsToCSC(r[0], r[1]), oracleToCSC(a.SliceRows(r[0], r[1]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d rows [%d,%d) of %dx%d: RowsToCSC %+v, SliceRows.ToCSC %+v", trial, r[0], r[1], m, a.N, got, want)
			}
			checkHeld(t, a)
		}
	}

	a := randCSR(rand.New(rand.NewSource(38)), 12, 12, 0.4)
	fresh := func() *CSR { return &CSR{M: a.M, N: a.N, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val} }
	// wantBlock checks that a block of b has the oracle's bytes.
	wantBlock := func(t *testing.T, got *CSC, b *CSR, r0, r1 int) {
		t.Helper()
		if want := oracleToCSC(b.SliceRows(r0, r1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("rows [%d,%d): got %+v, want %+v", r0, r1, got, want)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, b *CSR)
	}{
		{"repeat returns the held block", func(t *testing.T, b *CSR) {
			p := b.RowsToCSC(2, 7)
			if q := b.RowsToCSC(2, 7); q != p {
				t.Fatalf("repeat built a second block")
			}
			wantBlock(t, p, b, 2, 7)
			if got := MemoBuilds(b); got != 1 {
				t.Fatalf("%d builds, want 1", got)
			}
		}},
		{"overlap evicts", func(t *testing.T, b *CSR) {
			for _, step := range []struct {
				r    [2]int
				held [][2]int
			}{
				{[2]int{2, 7}, [][2]int{{2, 7}}},
				{[2]int{0, 2}, [][2]int{{2, 7}, {0, 2}}},
				{[2]int{5, 9}, [][2]int{{0, 2}, {5, 9}}},
				{[2]int{0, 12}, [][2]int{{0, 12}}},
				{[2]int{11, 12}, [][2]int{{11, 12}}},
				{[2]int{4, 4}, [][2]int{{11, 12}}}, // empty ranges are not held
			} {
				wantBlock(t, b.RowsToCSC(step.r[0], step.r[1]), b, step.r[0], step.r[1])
				if got := HeldRanges(b); !reflect.DeepEqual(got, step.held) {
					t.Fatalf("after [%d,%d): held %v, want %v", step.r[0], step.r[1], got, step.held)
				}
				checkHeld(t, b)
			}
		}},
		{"concurrent partitions build each block once", func(t *testing.T, b *CSR) {
			built := 0
			for _, p := range []int{1, 2, 3, 5, b.M + 3} { // b.M+3: P > m leaves empty blocks
				blocks := make([]*CSC, 2*p)
				var wg sync.WaitGroup
				for g := range blocks {
					wg.Add(1)
					go func() {
						defer wg.Done()
						lo, hi := blockRange(b.M, p, g%p)
						blocks[g] = b.RowsToCSC(lo, hi)
					}()
				}
				wg.Wait()
				for r := 0; r < p; r++ {
					lo, hi := blockRange(b.M, p, r)
					wantBlock(t, blocks[r], b, lo, hi)
					if lo < hi {
						built++
						if blocks[p+r] != blocks[r] {
							t.Fatalf("P=%d rank %d: two goroutines got different blocks", p, r)
						}
					}
				}
				if got := MemoBuilds(b); got != built {
					t.Fatalf("P=%d: %d builds, want %d (one per non-empty block)", p, got, built)
				}
				checkHeld(t, b)
			}
		}},
		{"kernel-workers view hits", func(t *testing.T, b *CSR) {
			// Views taken while the first conversion installs the memo
			// must not race it (the -race step runs this).
			got := make([]*CSC, 4)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if g%2 == 0 {
						got[g] = b.RowsToCSC(3, 9)
					} else {
						got[g] = b.WithKernelWorkers(2).(*CSR).RowsToCSC(3, 9)
					}
				}()
			}
			wg.Wait()
			for _, c := range got {
				wantBlock(t, c, b, 3, 9)
			}
			p := b.RowsToCSC(3, 9)
			v := b.WithKernelWorkers(4).(*CSR)
			if v.RowsToCSC(3, 9) != p || MemoBuilds(b) != MemoBuilds(v) {
				t.Fatalf("a view of a converted matrix missed the memo")
			}
		}},
		{"reassigned copy misses", func(t *testing.T, b *CSR) {
			p := b.RowsToCSC(0, 6)
			c := *b
			c.Val = append([]float64(nil), b.Val...)
			c.Val[0] = -c.Val[0]
			q := c.RowsToCSC(0, 6)
			if q == p {
				t.Fatalf("a copy with a reassigned Val hit the original's block")
			}
			wantBlock(t, q, &c, 0, 6)
			d := *b
			d.N++
			if r := d.RowsToCSC(0, 6); r == q || r.N != b.N+1 {
				t.Fatalf("a copy with a reassigned N hit a held block")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, fresh()) })
	}
}

// checkHeld asserts the memo's invariant: no two held ranges overlap, so
// the held blocks store at most nnz(a) entries.
func checkHeld(t testing.TB, a *CSR) {
	t.Helper()
	held := HeldRanges(a)
	nnz := 0
	for i, r := range held {
		if r[0] >= r[1] {
			t.Fatalf("held an empty range %v", r)
		}
		for _, q := range held[:i] {
			if r[0] < q[1] && q[0] < r[1] {
				t.Fatalf("held ranges %v and %v overlap", q, r)
			}
		}
		nnz += a.RowPtr[r[1]] - a.RowPtr[r[0]]
	}
	if nnz > a.NNZ() {
		t.Fatalf("held %d nonzeros of a %d-nonzero matrix", nnz, a.NNZ())
	}
}

// blockRange is mpi.BlockRange: rank r's share of n rows over p ranks.
func blockRange(n, p, r int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}
