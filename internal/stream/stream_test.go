package stream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saco/internal/core"
	"saco/internal/datagen"
	"saco/internal/libsvm"
	"saco/internal/mat"
	"saco/internal/rng"
	"saco/internal/sparse"
)

// buildFixture writes a synthetic regression problem as LIBSVM text,
// ingests it out of core with the given block size, and returns both
// representations. blockRows 64 over 640 rows gives 10 shards against
// the default 2-shard cache: the dataset is 5× the resident budget, the
// ≥ 4× regime of the acceptance criterion.
func buildFixture(t *testing.T, m, n, blockRows int) (*Dataset, *sparse.CSR, []float64) {
	t.Helper()
	d := datagen.Regression("fixture", 7, m, n, 0.1, 8, 0.1)
	a := d.AsCSR()
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, a, d.B); err != nil {
		t.Fatal(err)
	}
	ds, err := Build(&buf, t.TempDir(), BuildOptions{BlockRows: blockRows, Features: n})
	if err != nil {
		t.Fatal(err)
	}
	return ds, a, d.B
}

func TestBuildMatchesInMemoryRead(t *testing.T) {
	ds, a, b := buildFixture(t, 230, 40, 32)
	if m, n := ds.Dims(); m != a.M || n != a.N {
		t.Fatalf("dims %dx%d, want %dx%d", m, n, a.M, a.N)
	}
	if ds.nnz != int64(a.NNZ()) {
		t.Fatalf("nnz %d, want %d", ds.nnz, a.NNZ())
	}
	if ds.NumShards() != (230+31)/32 {
		t.Fatalf("shards %d", ds.NumShards())
	}
	for i, v := range b {
		if ds.B[i] != v {
			t.Fatalf("label %d: %g != %g", i, ds.B[i], v)
		}
	}
	// Reassemble via the block iterator, twice (multi-epoch reset).
	for epoch := 0; epoch < 2; epoch++ {
		it := ds.Blocks()
		got := mat.NewDense(a.M, a.N)
		rows := 0
		for it.Next() {
			blk := it.Block()
			if blk.Row0 != rows {
				t.Fatalf("block row0 %d, want %d", blk.Row0, rows)
			}
			d := blk.A.ToDense()
			for i := 0; i < d.R; i++ {
				copy(got.Row(blk.Row0+i), d.Row(i))
			}
			rows += blk.A.M
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != a.M {
			t.Fatalf("epoch %d reassembled %d rows", epoch, rows)
		}
		if mat.MaxAbsDiff(got, a.ToDense()) != 0 {
			t.Fatalf("epoch %d reassembly differs", epoch)
		}
		it.Reset()
	}
}

func TestOpenRoundTrip(t *testing.T) {
	ds, a, b := buildFixture(t, 100, 30, 16)
	back, err := Open(ds.dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, n := back.Dims(); m != a.M || n != a.N || back.nnz != ds.nnz || back.BlockRows() != 16 {
		t.Fatalf("manifest mismatch: %dx%d nnz=%d block=%d", m, n, back.nnz, back.BlockRows())
	}
	for i := range b {
		if back.B[i] != b[i] {
			t.Fatal("labels differ after reopen")
		}
	}
	y1 := make([]float64, a.M)
	y2 := make([]float64, a.M)
	x := make([]float64, a.N)
	for j := range x {
		x[j] = float64(j%5) - 2
	}
	a.MulVec(x, y1)
	back.Rows().MulVec(x, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("MulVec differs at %d after reopen", i)
		}
	}
}

// TestColStreamBitwise checks every ColMatrix kernel for exact (==)
// agreement with the in-memory CSC, the invariant the solver
// trajectories rest on.
func TestColStreamBitwise(t *testing.T) {
	ds, a, _ := buildFixture(t, 230, 40, 32)
	csc := a.ToCSC()
	cols := ds.Cols()
	r := rng.New(3)
	v := make([]float64, a.M)
	for i := range v {
		v[i] = r.NormFloat64()
	}

	for j := 0; j < a.N; j++ {
		if got, want := cols.ColNormSq(j), csc.ColNormSq(j); got != want {
			t.Fatalf("ColNormSq(%d): %v != %v", j, got, want)
		}
	}

	idx := r.SampleK(a.N, 12)
	d1 := make([]float64, len(idx))
	d2 := make([]float64, len(idx))
	csc.ColTMulVec(idx, v, d1)
	cols.ColTMulVec(idx, v, d2)
	for k := range d1 {
		if d1[k] != d2[k] {
			t.Fatalf("ColTMulVec[%d]: %v != %v", k, d2[k], d1[k])
		}
	}

	// Both store the Gram as its upper triangle: every entry must match
	// by bit pattern, and every strict-lower entry must be +0.
	g1 := mat.NewDense(len(idx), len(idx))
	g2 := mat.NewDense(len(idx), len(idx))
	for i := range g2.Data {
		g2.Data[i] = math.NaN() // ColGram overwrites every entry
	}
	csc.ColGram(idx, g1)
	cols.ColGram(idx, g2)
	for i := range g1.Data {
		if math.Float64bits(g1.Data[i]) != math.Float64bits(g2.Data[i]) {
			t.Fatalf("ColGram entry %d: %v != %v", i, g2.Data[i], g1.Data[i])
		}
		if row, col := i/g1.C, i%g1.C; row > col && math.Float64bits(g2.Data[i]) != 0 {
			t.Fatalf("ColGram lower entry (%d,%d) = %v, want +0", row, col, g2.Data[i])
		}
	}

	coef := make([]float64, len(idx))
	for k := range coef {
		coef[k] = r.NormFloat64()
	}
	v1 := append([]float64(nil), v...)
	v2 := append([]float64(nil), v...)
	csc.ColMulAdd(idx, coef, v1)
	cols.ColMulAdd(idx, coef, v2)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("ColMulAdd row %d: %v != %v", i, v2[i], v1[i])
		}
	}

	x := make([]float64, a.N)
	for j := range x {
		x[j] = r.NormFloat64()
	}
	y1 := make([]float64, a.M)
	y2 := make([]float64, a.M)
	csc.MulVec(x, y1)
	cols.MulVec(x, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("MulVec row %d: %v != %v", i, y2[i], y1[i])
		}
	}
}

// TestRowStreamBitwise checks every RowMatrix kernel against the
// in-memory CSR, including rows spanning several shards and the
// memoized gather path.
func TestRowStreamBitwise(t *testing.T) {
	ds, a, _ := buildFixture(t, 230, 40, 32)
	rows := ds.Rows()
	r := rng.New(5)

	x := make([]float64, a.N)
	for j := range x {
		x[j] = r.NormFloat64()
	}
	sample := []int{0, 229, 5, 64, 63, 64, 130, 97} // shard edges + a duplicate
	d1 := make([]float64, len(sample))
	d2 := make([]float64, len(sample))
	a.RowMulVec(sample, x, d1)
	rows.RowMulVec(sample, x, d2)
	for k := range d1 {
		if d1[k] != d2[k] {
			t.Fatalf("RowMulVec[%d]: %v != %v", k, d2[k], d1[k])
		}
	}

	g1 := mat.NewDense(len(sample), len(sample))
	g2 := mat.NewDense(len(sample), len(sample))
	a.RowGram(sample, g1)
	rows.RowGram(sample, g2)
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("RowGram entry %d: %v != %v", i, g2.Data[i], g1.Data[i])
		}
	}

	for _, i := range []int{0, 31, 32, 150, 229} {
		if got, want := rows.RowNormSq(i), a.RowNormSq(i); got != want {
			t.Fatalf("RowNormSq(%d): %v != %v", i, got, want)
		}
	}

	x1 := append([]float64(nil), x...)
	x2 := append([]float64(nil), x...)
	a.RowTAxpy(117, 0.37, x1)
	rows.RowTAxpy(117, 0.37, x2) // memoized-miss path
	a.RowTAxpy(64, -1.1, x1)
	rows.RowTAxpy(64, -1.1, x2) // memoized-hit path (64 was gathered)
	for j := range x1 {
		if x1[j] != x2[j] {
			t.Fatalf("RowTAxpy col %d: %v != %v", j, x2[j], x1[j])
		}
	}
}

// TestLassoStreamingBitwiseTrajectory is the acceptance criterion: a
// dataset 5× larger than the 2-shard block cache, solved sequentially
// out of core, must reproduce the in-memory objective trajectory and
// solution bitwise — plain and accelerated, classical and s-step.
func TestLassoStreamingBitwiseTrajectory(t *testing.T) {
	ds, a, b := buildFixture(t, 640, 80, 64)
	if got := ds.NumShards(); got < 4*defaultCacheShards {
		t.Fatalf("fixture too small: %d shards vs cache %d", got, defaultCacheShards)
	}
	csc := a.ToCSC()

	lamMem := core.LambdaMaxL1(csc, b)
	lamStream := core.LambdaMaxL1(ds.Cols(), b)
	if lamMem != lamStream {
		t.Fatalf("LambdaMax differs: %v != %v", lamStream, lamMem)
	}

	for _, tc := range []struct {
		name string
		opt  core.LassoOptions
	}{
		{"cd", core.LassoOptions{Lambda: 0.1 * lamMem, Iters: 120, TrackEvery: 11}},
		{"sa-bcd", core.LassoOptions{Lambda: 0.1 * lamMem, Iters: 120, S: 8, BlockSize: 4, TrackEvery: 11}},
		{"sa-accbcd", core.LassoOptions{Lambda: 0.1 * lamMem, Iters: 120, S: 8, BlockSize: 4, Accelerated: true, TrackEvery: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Seed = 42
			mem, err := core.Lasso(csc, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			str, err := core.Lasso(ds.Cols(), b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(mem.History) == 0 || len(mem.History) != len(str.History) {
				t.Fatalf("history lengths %d vs %d", len(str.History), len(mem.History))
			}
			for k := range mem.History {
				if mem.History[k].Value != str.History[k].Value {
					t.Fatalf("objective trajectory diverges at point %d (iter %d): %.17g != %.17g",
						k, mem.History[k].Iter, str.History[k].Value, mem.History[k].Value)
				}
			}
			if mem.Objective != str.Objective {
				t.Fatalf("final objective %.17g != %.17g", str.Objective, mem.Objective)
			}
			for j := range mem.X {
				if mem.X[j] != str.X[j] {
					t.Fatalf("x[%d]: %.17g != %.17g", j, str.X[j], mem.X[j])
				}
			}
		})
	}
}

// TestSVMStreamingBitwiseTrajectory is the row-access counterpart:
// classical and s-step dual CD over the streamed rows must match the
// in-memory gap trajectory bitwise.
func TestSVMStreamingBitwiseTrajectory(t *testing.T) {
	d := datagen.Classification("svmfix", 11, 640, 60, 0.1, 0.05)
	a := d.AsCSR()
	var buf bytes.Buffer
	if err := libsvm.Write(&buf, a, d.B); err != nil {
		t.Fatal(err)
	}
	ds, err := Build(&buf, t.TempDir(), BuildOptions{BlockRows: 64, Features: 60})
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []int{0, 8} {
		opt := core.SVMOptions{Lambda: 1, Iters: 150, S: s, Seed: 9, TrackEvery: 25}
		mem, err := core.SVM(a, d.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		str, err := core.SVM(ds.Rows(), d.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(mem.History) == 0 || len(mem.History) != len(str.History) {
			t.Fatalf("s=%d: history lengths %d vs %d", s, len(str.History), len(mem.History))
		}
		for k := range mem.History {
			if mem.History[k].Gap != str.History[k].Gap || mem.History[k].Primal != str.History[k].Primal {
				t.Fatalf("s=%d: gap trajectory diverges at %d", s, k)
			}
		}
		if mem.Gap != str.Gap {
			t.Fatalf("s=%d: final gap %.17g != %.17g", s, str.Gap, mem.Gap)
		}
		for j := range mem.X {
			if mem.X[j] != str.X[j] {
				t.Fatalf("s=%d: x[%d] differs", s, j)
			}
		}
	}
}

func TestBuildRejectsBadRows(t *testing.T) {
	cases := []struct{ in, want string }{
		{"1 1:1\n1 3:1 3:2\n", "line 2: duplicate index 3"},
		{"1 5:1 2:1\n", "line 1: index 2 out of order"},
		{"x 1:1\n", "bad label"},
		{"1 0:2\n", "bad index"},
		{"1 1:1\n1 1:nan 2:1\n", `line 2: bad value "nan": not finite`},
		{"-Inf 1:1\n", `line 1: bad label "-Inf": not finite`},
	}
	for _, tc := range cases {
		_, err := Build(strings.NewReader(tc.in), t.TempDir(), BuildOptions{BlockRows: 4})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("input %q: error %v does not mention %q", tc.in, err, tc.want)
		}
	}
	if _, err := Build(strings.NewReader("1 2:1\n"), t.TempDir(), BuildOptions{Features: 1}); err == nil {
		t.Fatal("expected declared-width error")
	}
}

// TestBuildLongLine: rows wider than the reader's internal buffer (and
// than libsvm.Read's scanner cap would allow at scale) stream through.
func TestBuildLongLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("1")
	n := 300000 // ~3.4 MB of text, past the 1 MiB reader buffer
	for j := 1; j <= n; j++ {
		sb.WriteString(" ")
		sb.WriteString(itoa(j))
		sb.WriteString(":1")
	}
	sb.WriteString("\n-1 1:2\n")
	ds, err := Build(strings.NewReader(sb.String()), t.TempDir(), BuildOptions{BlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m, nn := ds.Dims(); m != 2 || nn != n {
		t.Fatalf("dims %dx%d", m, nn)
	}
	if ds.nnz != int64(n+1) {
		t.Fatalf("nnz %d", ds.nnz)
	}
	if got := ds.Cols().ColNormSq(0); got != 5 { // 1² + 2²
		t.Fatalf("ColNormSq(0) = %v", got)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestBuildComments(t *testing.T) {
	in := "# header\n\n1 1:1\n  # indented comment\n-1 2:-3\n"
	ds, err := Build(strings.NewReader(in), t.TempDir(), BuildOptions{BlockRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m, n := ds.Dims(); m != 2 || n != 2 {
		t.Fatalf("dims %dx%d", m, n)
	}
	if ds.B[0] != 1 || ds.B[1] != -1 {
		t.Fatalf("labels %v", ds.B)
	}
	if ds.NumShards() != 2 {
		t.Fatalf("shards %d", ds.NumShards())
	}
}

func TestBuildNoTrailingNewline(t *testing.T) {
	ds, err := Build(strings.NewReader("1 1:1\n-1 2:2"), t.TempDir(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := ds.Dims(); m != 2 {
		t.Fatalf("rows %d", m)
	}
}

func TestSourceMatches(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "data.svm")
	if err := os.WriteFile(src, []byte("1 1:1\n-1 2:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, "cache")
	ds, err := BuildFile(src, cache, BuildOptions{BlockRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.SourceMatches(src) {
		t.Fatal("fresh build does not match its own source")
	}
	back, err := Open(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SourceMatches(src) {
		t.Fatal("reopened manifest does not match the source")
	}
	// Rewriting the source (different size) must invalidate the cache.
	if err := os.WriteFile(src, []byte("1 1:1\n-1 2:2\n1 3:3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if back.SourceMatches(src) {
		t.Fatal("stale cache still claims to match the rewritten source")
	}
	if back.SourceMatches(filepath.Join(dir, "missing.svm")) {
		t.Fatal("cache matches a nonexistent source")
	}
	// Reader-built datasets record no source and defer to the caller.
	rd, err := Build(strings.NewReader("1 1:1\n"), filepath.Join(dir, "cache2"), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.SourceMatches(src) {
		t.Fatal("reader-built dataset should not reject any source")
	}
}

func TestShardValuesExact(t *testing.T) {
	// Exact float64 round-trip through the shard encoding, including
	// values that decimal text would mangle — in both layouts.
	vals := []float64{math.Pi, -math.SmallestNonzeroFloat64, 1e300, -0.1, 3}
	rowPtr := []int{0, len(vals)}
	cols := []int{0, 1, 2, 3, 4}
	for _, layout := range layouts {
		dir := t.TempDir()
		block := shardBlock{csr: &sparse.CSR{M: 1, N: 5, RowPtr: rowPtr, ColIdx: cols, Val: vals}}
		if layout == LayoutCSC {
			block = shardBlock{csc: cscFromBlock(rowPtr, cols, vals)}
		}
		if err := writeShard(shardPath(dir, 0), layout, block); err != nil {
			t.Fatal(err)
		}
		one := &Dataset{dir: dir, n: 5, shards: []ShardInfo{{Rows: 1, NNZ: int64(len(vals))}}}
		back, err := one.readShardFile(0)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		if layout == LayoutCSC {
			got = back.csc.ToCSR().Val
		} else {
			got = back.csr.Val
		}
		for k, v := range vals {
			if got[k] != v {
				t.Fatalf("%v val %d: %v != %v", layout, k, got[k], v)
			}
		}
	}
}
