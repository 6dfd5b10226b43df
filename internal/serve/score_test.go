package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"saco/internal/simd"
	"saco/internal/sparse"
	"saco/internal/wire"
)

// mergeScore is Score's definition, kept as its oracle: each row's
// two-pointer merge with the model's support, summed from +0.
func mergeScore(m *Model, a *sparse.CSR) []float64 {
	y := make([]float64, a.M)
	for i := range y {
		p, end := a.RowPtr[i], a.RowPtr[i+1]
		y[i] = simd.MergeDot(0, a.ColIdx[p:end], a.Val[p:end], m.Idx, m.Val)
	}
	return y
}

// checkScore scores a against m and wants the oracle's bits.
func checkScore(t *testing.T, m *Model, a *sparse.CSR) {
	t.Helper()
	y := make([]float64, a.M)
	if err := m.Score(a, 1, y); err != nil {
		t.Fatal(err)
	}
	for i, want := range mergeScore(m, a) {
		if math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Fatalf("nnz %d, row %d: Score %v (%#016x), MergeDot %v (%#016x)", m.NNZ(), i, y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
		}
	}
}

// requestRows builds rows×perRow features over [0, n), the benchmark's
// request shape.
func requestRows(t testing.TB, rng *rand.Rand, rows, n, perRow int) *sparse.CSR {
	rowPtr := []int{0}
	var colIdx []int
	var vals []float64
	for range rows {
		cols := rng.Perm(n)[:perRow]
		slices.Sort(cols)
		for _, j := range cols {
			colIdx = append(colIdx, j)
			vals = append(vals, rng.NormFloat64())
		}
		rowPtr = append(rowPtr, len(vals))
	}
	a, err := sparse.NewCSR(rows, n, rowPtr, colIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestScoreMatchesMergeDot: position-map scoring gives the merge's bits
// from a one-coefficient model to a dense one.
func TestScoreMatchesMergeDot(t *testing.T) {
	const features = 4096
	rng := rand.New(rand.NewSource(41))
	a := requestRows(t, rng, 256, features, 48)
	for _, nnz := range []int{1, 50, 400, 2000, features} {
		checkScore(t, testModel(KindLasso, features, nnz, int64(nnz)), a)
	}
}

// TestScoreEmptyModel: a model with no nonzero coefficient overwrites
// every score with +0, whatever the output held before.
func TestScoreEmptyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testModel(KindLasso, 8, 0, 0)
	a := randRequestCSR(rng, 10, m.Features)
	y := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if err := m.Score(a, 1, y); err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if math.Float64bits(v) != 0 {
			t.Fatalf("row %d: %v (%#016x), want +0", i, v, math.Float64bits(v))
		}
	}
	checkScore(t, m, a)
}

// TestScoreBatchedMatchesRowsAlone: a batch scores, bit for bit, as each
// of its rows scored through a one-row matrix of its own.
func TestScoreBatchedMatchesRowsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := testModel(KindSVM, 64, 12, 3)
	a := randRequestCSR(rng, 200, m.Features)
	batched := make([]float64, a.M)
	if err := m.Score(a, 1, batched); err != nil {
		t.Fatal(err)
	}
	one := make([]float64, 1)
	for i := range a.M {
		p, end := a.RowPtr[i], a.RowPtr[i+1]
		row, err := sparse.NewCSR(1, a.N, []int{0, end - p}, a.ColIdx[p:end], a.Val[p:end])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Score(row, 1, one); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(one[0]) != math.Float64bits(batched[i]) {
			t.Fatalf("row %d: batched %v, alone %v", i, batched[i], one[0])
		}
	}
}

// TestScoreConcurrentFirstUse: goroutines that race to a model's first
// Score share one position map and all get the merge's bits (run under
// -race, this checks the sync.Once hand-off).
func TestScoreConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := testModel(KindLasso, 512, 60, 4)
	a := requestRows(t, rng, 32, m.Features, 16)
	want := mergeScore(m, a)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, a.M)
			if err := m.Score(a, 1, y); err != nil {
				t.Error(err)
				return
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Errorf("row %d: %v, want %v", i, y[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScoreSpecialValues: a feature the model lacks adds nothing — not
// v·0, which would make an Inf a NaN — and a sum of −0 products is +0,
// as the merge's sum from +0 is.
func TestScoreSpecialValues(t *testing.T) {
	m := &Model{Kind: KindRaw, Features: 8, Idx: []int{2, 4, 6}, Val: []float64{1.5, 1e-200, -2}}
	rows := [][]float64{
		{0: math.Inf(1), 2: 3, 3: math.NaN(), 5: math.Inf(-1), 7: math.NaN()}, // non-finite where the model is absent
		{4: -1e-200},                          // one −0 product
		{2: math.Copysign(0, -1), 4: -1e-200}, // all products −0
		{1: math.NaN(), 6: 0.5},
	}
	rowPtr := []int{0}
	var colIdx []int
	var vals []float64
	for _, r := range rows {
		for j, v := range r {
			if v != 0 || math.Signbit(v) {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
		}
		rowPtr = append(rowPtr, len(vals))
	}
	a, err := sparse.NewCSR(len(rows), m.Features, rowPtr, colIdx, vals)
	if err != nil {
		t.Fatal(err)
	}
	checkScore(t, m, a)
	y := make([]float64, a.M)
	if err := m.Score(a, 1, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 4.5 {
		t.Fatalf("row 0 scored %v, want 4.5: an absent feature added to the sum", y[0])
	}
	for _, i := range []int{1, 2} {
		if math.Float64bits(y[i]) != 0 {
			t.Fatalf("row %d scored %v (%#016x), want +0", i, y[i], math.Float64bits(y[i]))
		}
	}
}

// TestScoreMalformedModel: a model whose support breaks the invariants
// is an error from Score, not a panic or a wrong read — the same error
// on every call.
func TestScoreMalformedModel(t *testing.T) {
	a := requestRows(t, rand.New(rand.NewSource(5)), 4, 6, 3)
	for name, m := range map[string]*Model{
		"unsorted":        {Features: 6, Idx: []int{3, 1}, Val: []float64{1, 2}},
		"duplicate":       {Features: 6, Idx: []int{2, 2}, Val: []float64{1, 2}},
		"out of range":    {Features: 6, Idx: []int{6}, Val: []float64{1}},
		"negative":        {Features: 6, Idx: []int{-1}, Val: []float64{1}},
		"length mismatch": {Features: 6, Idx: []int{0, 1}, Val: []float64{1}},
		"values short":    {Features: 6, Idx: []int{0}, Val: nil},
	} {
		for range 2 {
			if err := m.Score(a, 1, make([]float64, a.M)); err == nil {
				t.Fatalf("%s: scored", name)
			}
		}
	}
}

// sizeBombModel hand-seals an 80-byte .sacm image that claims 2⁴⁰
// features and holds one nonzero: a position map for it would take
// 4 TB.
func sizeBombModel() []byte {
	data := make([]byte, modelHeaderSize+16)
	copy(data, modelMagic)
	le := binary.LittleEndian
	le.PutUint32(data[8:], modelFormatVersion)
	le.PutUint32(data[12:], uint32(KindLasso))
	le.PutUint64(data[16:], 1<<40)
	le.PutUint64(data[48:], 1)
	le.PutUint64(data[modelHeaderSize+8:], math.Float64bits(1))
	return wire.CRC64.Seal(data)
}

// TestSizeBombModelRefused: the 80-byte image is a fast typed error on
// every load path — decodeModel, LoadModelFile and a watching registry,
// which keeps serving what it served — with no allocation near its
// claim; so is such a model built in memory, on Score and on encode. A
// model at the cap is valid.
func TestSizeBombModelRefused(t *testing.T) {
	bomb := sizeBombModel()
	if len(bomb) != 80 {
		t.Fatalf("image is %d bytes", len(bomb))
	}
	refused := func(how string, err error) {
		t.Helper()
		var tooMany *TooManyFeaturesError
		if !errors.As(err, &tooMany) || tooMany.Features != 1<<40 || tooMany.Cap != maxFeatures {
			t.Fatalf("%s: %v, want a TooManyFeaturesError for 2^40 features", how, err)
		}
	}
	m := &Model{Kind: KindLasso, Features: 1 << 40, Idx: []int{0}, Val: []float64{1}}
	refused("Score", m.Score(&sparse.CSR{N: m.Features, RowPtr: []int{0}}, 1, nil))
	if m.pos != nil {
		t.Fatal("a refused model built its position map")
	}
	_, err := encodeModel(m)
	refused("encodeModel", err)
	if err := (&Model{Features: maxFeatures}).validate(); err != nil {
		t.Fatalf("a model at the cap: %v", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeModel(bomb)
	runtime.ReadMemStats(&after)
	refused("decodeModel", err)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing the image allocated %d bytes", grew)
	}

	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, 30, 3, 7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf(modelFilePattern, uint64(2)))
	if err := os.WriteFile(path, bomb, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadModelFile(path)
	refused("LoadModelFile", err)

	swaps := reg.Swaps()
	runtime.ReadMemStats(&before)
	reg.Watch(time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	reg.StopWatch()
	runtime.ReadMemStats(&after)
	if reg.Version() != 1 || reg.Swaps() != swaps {
		t.Fatalf("watcher swapped to version %d (%d swaps)", reg.Version(), reg.Swaps()-swaps)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("watching the image allocated %d bytes", grew)
	}
	swapped, err := reg.Poll()
	refused("Poll", err)
	if swapped {
		t.Fatal("Poll swapped to the image")
	}
}

// FuzzScore: the bytes decode into a model and a request matrix of at
// most 16×16 — raw float bits, so NaN, ±Inf, −0 and subnormals all
// occur — and Score must give the merge's bits.
func FuzzScore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 0x0f, 0xff, 0xff})
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	seed := []byte{4, 2, 0b0101}
	for _, v := range []float64{1.5, inf} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for _, r := range []struct {
		mask byte
		vals []float64
	}{{0b1111, []float64{nan, 2, inf, negZero}}, {0b0101, []float64{negZero, -1e-310}}} {
		seed = append(seed, r.mask)
		for _, v := range r.vals {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) []byte {
			b := make([]byte, n)
			data = data[copy(b, data):]
			return b
		}
		value := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(next(8))) }
		head := next(2)
		n, rows := 1+int(head[0]%16), int(head[1]%17)
		support := binary.LittleEndian.Uint16(next(2))
		m := &Model{Features: n}
		for j := range n {
			if support>>j&1 != 0 {
				m.Idx = append(m.Idx, j)
				m.Val = append(m.Val, value())
			}
		}
		rowPtr := []int{0}
		var colIdx []int
		var vals []float64
		for range rows {
			mask := binary.LittleEndian.Uint16(next(2))
			for j := range n {
				if mask>>j&1 != 0 {
					colIdx = append(colIdx, j)
					vals = append(vals, value())
				}
			}
			rowPtr = append(rowPtr, len(vals))
		}
		a, err := sparse.NewCSR(rows, n, rowPtr, colIdx, vals)
		if err != nil {
			t.Fatal(err)
		}
		checkScore(t, m, a)
	})
}

// BenchmarkScore scores one full-sized request (256 rows × 48 features
// over 8 192) against a model with 400 nonzeros.
func BenchmarkScore(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := requestRows(b, rng, 256, 8192, 48)
	m := testModel(KindLasso, 8192, 400, 2)
	y := make([]float64, a.M)
	for b.Loop() {
		if err := m.Score(a, 1, y); err != nil {
			b.Fatal(err)
		}
	}
}
