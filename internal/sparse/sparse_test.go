package sparse

import (
	"math"
	"math/rand"
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

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}); err == nil {
		t.Fatal("expected rowPtr length error")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected unsorted column error")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{5}, []float64{1}); err == nil {
		t.Fatal("expected out-of-range column error")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{0}, []float64{1}); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
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
	mat.Gemv(1, d, x, 0, y2)
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

	// ColGram
	g := mat.NewDense(3, 3)
	c.ColGram(cols, g)
	for p, jp := range cols {
		for q, jq := range cols {
			var want float64
			for i := 0; i < 30; i++ {
				want += d.At(i, jp) * d.At(i, jq)
			}
			if !approxEq(g.At(p, q), want, 1e-12) {
				t.Fatalf("ColGram[%d,%d] = %v, want %v", p, q, g.At(p, q), want)
			}
		}
	}

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
		for q, rq := range rows {
			want := mat.Dot(d.Row(rp), d.Row(rq))
			if !approxEq(g.At(p, q), want, 1e-12) {
				t.Fatalf("RowGram[%d,%d] = %v, want %v", p, q, g.At(p, q), want)
			}
		}
	}

	u := randVec(rng, 40)
	uRef := append([]float64(nil), u...)
	a.RowTAxpy(7, 2.5, u)
	for j := 0; j < 40; j++ {
		want := uRef[j] + 2.5*d.At(7, j)
		if !approxEq(u[j], want, 1e-12) {
			t.Fatalf("RowTAxpy[%d] = %v, want %v", j, u[j], want)
		}
	}

	if !approxEq(a.RowNormSq(7), mat.Nrm2Sq(d.Row(7)), 1e-12) {
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

func TestDensityAndFromDense(t *testing.T) {
	d := mat.NewDense(2, 2)
	d.Set(0, 0, 1)
	a := FromDense(d)
	if a.NNZ() != 1 || a.Density() != 0.25 {
		t.Fatalf("NNZ=%d density=%v", a.NNZ(), a.Density())
	}
	if (&CSR{M: 0, N: 5, RowPtr: []int{0}}).Density() != 0 {
		t.Fatal("empty density")
	}
}

func TestDenseViewsMatchSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 18, 10, 0.5)
	d := a.ToDense()
	c := a.ToCSC()
	dc := DenseCols{A: d}
	dr := DenseRows{A: d}

	cols := []int{0, 3, 9}
	v := randVec(rng, 18)
	s1 := make([]float64, 3)
	s2 := make([]float64, 3)
	c.ColTMulVec(cols, v, s1)
	dc.ColTMulVec(cols, v, s2)
	for k := range s1 {
		if !approxEq(s1[k], s2[k], 1e-12) {
			t.Fatalf("DenseCols.ColTMulVec[%d] mismatch", k)
		}
	}

	g1 := mat.NewDense(3, 3)
	g2 := mat.NewDense(3, 3)
	c.ColGram(cols, g1)
	dc.ColGram(cols, g2)
	if mat.MaxAbsDiff(g1, g2) > 1e-12 {
		t.Fatal("DenseCols.ColGram mismatch")
	}

	u1 := randVec(rng, 18)
	u2 := append([]float64(nil), u1...)
	coef := []float64{1, -1, 0.5}
	c.ColMulAdd(cols, coef, u1)
	dc.ColMulAdd(cols, coef, u2)
	for i := range u1 {
		if !approxEq(u1[i], u2[i], 1e-12) {
			t.Fatalf("DenseCols.ColMulAdd[%d] mismatch", i)
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
			t.Fatalf("DenseRows.RowMulVec[%d] mismatch", k)
		}
	}

	gr1 := mat.NewDense(2, 2)
	gr2 := mat.NewDense(2, 2)
	a.RowGram(rows, gr1)
	dr.RowGram(rows, gr2)
	if mat.MaxAbsDiff(gr1, gr2) > 1e-12 {
		t.Fatal("DenseRows.RowGram mismatch")
	}

	if !approxEq(dc.ColNormSq(3), c.ColNormSq(3), 1e-12) {
		t.Fatal("DenseCols.ColNormSq mismatch")
	}
	if !approxEq(dr.RowNormSq(2), a.RowNormSq(2), 1e-12) {
		t.Fatal("DenseRows.RowNormSq mismatch")
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
		// Symmetry is by construction; check PSD via random probes.
		for probe := 0; probe < 4; probe++ {
			v := randVec(rng, k)
			w := make([]float64, k)
			mat.Gemv(1, g, v, 0, w)
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
