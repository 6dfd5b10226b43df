package libsvm

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"saco/internal/mat"
	"saco/internal/rng"
	"saco/internal/sparse"
)

func TestReadBasic(t *testing.T) {
	in := `+1 1:0.5 3:2
-1 2:-1.5
# a comment

+1 1:1 2:1 3:1
`
	a, b, err := Read(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.M != 3 || a.N != 3 {
		t.Fatalf("dims %dx%d", a.M, a.N)
	}
	if b[0] != 1 || b[1] != -1 || b[2] != 1 {
		t.Fatalf("labels %v", b)
	}
	d := a.ToDense()
	if d.At(0, 0) != 0.5 || d.At(0, 2) != 2 || d.At(1, 1) != -1.5 || d.At(2, 1) != 1 {
		t.Fatalf("values wrong: %v", d.Data)
	}
}

func TestReadDeclaredWidth(t *testing.T) {
	a, _, err := Read(strings.NewReader("1 1:1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 10 {
		t.Fatalf("N = %d, want 10", a.N)
	}
	if _, _, err := Read(strings.NewReader("1 11:1\n"), 10); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"abc 1:1\n",   // bad label
		"1 0:1\n",     // index < 1
		"1 x:1\n",     // bad index
		"1 1:zz\n",    // bad value
		"1 2:1 1:2\n", // decreasing indices
		"1 1\n",       // missing colon
	}
	for _, in := range cases {
		if _, _, err := Read(strings.NewReader(in), 0); err == nil {
			t.Fatalf("no error for %q", in)
		}
	}
}

// Explicit zeros ("n:0", the conventional dimensionality declaration)
// must widen the inferred matrix and still hit the declared-width
// bounds check, even though their values are not stored.
func TestReadExplicitZeroDeclaresWidth(t *testing.T) {
	a, _, err := Read(strings.NewReader("1 1:1 5:0\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.N != 5 || a.NNZ() != 1 {
		t.Fatalf("N=%d nnz=%d, want N=5 nnz=1", a.N, a.NNZ())
	}
	if _, _, err := Read(strings.NewReader("1 1:1 5:0\n"), 3); err == nil {
		t.Fatal("expected out-of-range error for zero-valued index 5 with n=3")
	}
}

func TestReadDuplicateIndex(t *testing.T) {
	_, _, err := Read(strings.NewReader("1 1:1\n1 2:1 2:3\n"), 0)
	if err == nil {
		t.Fatal("expected duplicate-index error")
	}
	for _, want := range []string{"line 2", "duplicate index 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestReadOutOfOrderIndex(t *testing.T) {
	_, _, err := Read(strings.NewReader("1 5:1 2:3\n"), 0)
	if err == nil {
		t.Fatal("expected out-of-order error")
	}
	for _, want := range []string{"line 1", "index 2 out of order after 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestReadRowTooLong(t *testing.T) {
	// A small cap keeps the test cheap; Read uses the same path with the
	// 64 MiB production cap.
	in := "1 1:1\n-1 " + strings.Repeat("1:1 ", 40) + "\n"
	_, _, err := read(strings.NewReader(in), 0, 32)
	if err == nil {
		t.Fatal("expected token-too-long error")
	}
	for _, want := range []string{"line 2", "32-byte", "streaming reader"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestRowParserReuse(t *testing.T) {
	var p RowParser
	if _, err := p.Parse("1 1:1 3:2 9:4", 1); err != nil {
		t.Fatal(err)
	}
	if p.MaxCol() != 8 || len(p.Cols) != 3 {
		t.Fatalf("cols %v maxCol %d", p.Cols, p.MaxCol())
	}
	// Explicit zeros are dropped from storage but still declare width.
	if _, err := p.Parse("1 2:5 7:0", 2); err != nil {
		t.Fatal(err)
	}
	if p.MaxCol() != 6 || len(p.Cols) != 1 || p.Vals[0] != 5 {
		t.Fatalf("reuse broken: cols %v vals %v maxCol %d", p.Cols, p.Vals, p.MaxCol())
	}
	if _, err := p.Parse("x", 3); err == nil {
		t.Fatal("expected bad-label error")
	}
}

func TestReadScientificNotation(t *testing.T) {
	a, _, err := Read(strings.NewReader("3.5e-1 2:1e3\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ToDense().At(0, 1) != 1000 {
		t.Fatal("scientific value wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := rng.New(1)
	coo := sparse.NewCOO(20, 15)
	labels := make([]float64, 20)
	for i := 0; i < 20; i++ {
		labels[i] = float64(2*(i%2) - 1)
		for _, j := range r.SampleK(15, 4) {
			coo.Add(i, j, r.NormFloat64())
		}
	}
	a := coo.ToCSR()
	var buf bytes.Buffer
	if err := Write(&buf, a, labels); err != nil {
		t.Fatal(err)
	}
	back, backLabels, err := Read(&buf, a.N)
	if err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(a.ToDense(), back.ToDense()) != 0 {
		t.Fatal("matrix changed in round trip")
	}
	for i := range labels {
		if labels[i] != backLabels[i] {
			t.Fatal("labels changed in round trip")
		}
	}
}

func TestWriteLabelMismatch(t *testing.T) {
	a := sparse.NewCOO(2, 2).ToCSR()
	if err := Write(&bytes.Buffer{}, a, []float64{1}); err == nil {
		t.Fatal("expected label-count error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.svm")
	coo := sparse.NewCOO(3, 4)
	coo.Add(0, 0, 1)
	coo.Add(2, 3, -2.5)
	a := coo.ToCSR()
	labels := []float64{1, -1, 1}
	if err := WriteFile(path, a, labels); err != nil {
		t.Fatal(err)
	}
	back, bl, err := ReadFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(a.ToDense(), back.ToDense()) != 0 || bl[2] != 1 {
		t.Fatal("file round trip mismatch")
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing"), 0); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// Property: write∘read is the identity on random sparse matrices.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, mRaw, nRaw uint8) bool {
		m := 1 + int(mRaw%12)
		n := 1 + int(nRaw%12)
		r := rng.New(seed)
		coo := sparse.NewCOO(m, n)
		labels := make([]float64, m)
		for i := 0; i < m; i++ {
			labels[i] = r.NormFloat64()
			k := r.Intn(n + 1)
			for _, j := range r.SampleK(n, k) {
				coo.Add(i, j, r.NormFloat64())
			}
		}
		a := coo.ToCSR()
		var buf bytes.Buffer
		if err := Write(&buf, a, labels); err != nil {
			return false
		}
		back, bl, err := Read(&buf, n)
		if err != nil {
			return false
		}
		if mat.MaxAbsDiff(a.ToDense(), back.ToDense()) != 0 {
			return false
		}
		for i := range labels {
			if labels[i] != bl[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
