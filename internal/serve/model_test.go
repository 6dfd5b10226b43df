package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"saco/internal/sparse"
	"saco/internal/wire"
)

// modelHeaderSize is the .sacm header: magic through nnz.
const modelHeaderSize = 56

// testModel builds a deterministic sparse model.
func testModel(kind Kind, n, nnz int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for _, j := range rng.Perm(n)[:nnz] {
		x[j] = rng.NormFloat64()
	}
	m := NewModel(kind, x)
	m.TrainRows = 1234
	m.Lambda = 0.125
	return m
}

// TestModelBinaryRoundTrip: write → read reproduces every field and
// every coefficient bit for bit.
func TestModelBinaryRoundTrip(t *testing.T) {
	m := testModel(KindLasso, 300, 17, 1)
	m.Version = 42
	buf, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeModel(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Features != m.Features || got.TrainRows != m.TrainRows ||
		got.Lambda != m.Lambda || got.Version != m.Version || got.NNZ() != m.NNZ() {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	for k := range m.Idx {
		if got.Idx[k] != m.Idx[k] || got.Val[k] != m.Val[k] {
			t.Fatalf("coef %d: (%d,%v) != (%d,%v)", k, got.Idx[k], got.Val[k], m.Idx[k], m.Val[k])
		}
	}
}

// TestModelEmptyRoundTrip: the all-zero model (λ ≥ λmax) is legal.
func TestModelEmptyRoundTrip(t *testing.T) {
	m := NewModel(KindLasso, make([]float64, 50))
	buf, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeModel(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Features != 50 || got.NNZ() != 0 {
		t.Fatalf("got %d features, %d nnz", got.Features, got.NNZ())
	}
}

// TestLoadModelFileAutoDetect: the loader takes the binary format and
// nothing else — the read side of the historical text format (one
// value per line) is gone, and its refusal names the format and the
// migration.
func TestLoadModelFileAutoDetect(t *testing.T) {
	dir := t.TempDir()
	m := testModel(KindLasso, 80, 9, 3)

	bin := filepath.Join(dir, "m.sacm")
	if err := WriteModelFile(bin, m); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadModelFile(bin); err != nil || got.Kind != KindLasso {
		t.Fatalf("binary load: %v (%+v)", err, got)
	}

	var txt strings.Builder
	for _, v := range m.Dense() {
		fmt.Fprintf(&txt, "%.17g\n", v)
	}
	for _, tc := range []struct{ name, body string }{
		{"text model", txt.String()},
		{"one-value text model", "0.5\n"},
		{"empty file", ""},
	} {
		path := filepath.Join(dir, "m.txt")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadModelFile(path)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		for _, want := range []string{"text model format", "sasolve -out model.sacm"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not mention %q", tc.name, err, want)
			}
		}
	}
}

// TestModelKindPegasosRefused: kind 3 is what the removed Pegasos
// trainer wrote. A hand-written kind-3 image is refused by name with
// the migration, and a registry skips it as it skips any artifact it
// cannot load, serving the older model instead.
func TestModelKindPegasosRefused(t *testing.T) {
	var w wire.Writer
	w.Bytes([]byte(modelMagic))
	w.U32(modelFormatVersion)
	w.U32(3)   // kind: pegasos
	w.U64(4)   // features
	w.U64(6)   // training rows
	w.F64(1)   // lambda
	w.U64(2)   // model version
	w.U64(1)   // nnz
	w.U64(2)   // index
	w.F64(0.5) // value
	img := wire.CRC64.Seal(w.B)

	dir := t.TempDir()
	if err := WriteModelFile(filepath.Join(dir, fmt.Sprintf(modelFilePattern, 1)), testModel(KindSVM, 4, 2, 5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf(modelFilePattern, 2))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModelFile(path)
	if err == nil {
		t.Fatal("kind-3 model accepted")
	}
	for _, want := range []string{"pegasos", "sasolve -task svm -out"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m := reg.Current(); m == nil || m.Version != 1 || m.Kind != KindSVM {
		t.Fatalf("registry serves %+v, want the version-1 svm model", m)
	}
}

// TestLoadModelFileOversizeRefusedUnread: a file past the reader cap is
// refused from its size alone. Registry.Poll retries a bad newer version
// every watch tick, so reading such a file whole each time would cost
// its full size in memory and I/O per tick; the sparse file here costs
// no disk blocks and must cost no read.
func TestLoadModelFileOversizeRefusedUnread(t *testing.T) {
	path := filepath.Join(t.TempDir(), fmt.Sprintf(modelFilePattern, 9))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxModelBytes + 1); err != nil {
		f.Close()
		t.Skipf("no sparse files here: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadModelFile(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reader cap") {
		t.Fatalf("oversize model: %v, want the reader-cap refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a %d-byte model allocated %d bytes", maxModelBytes+1, grew)
	}
}

// TestModelRejectsCorruption: every corruption class is refused —
// flipped payload bits (checksum), truncation, oversized declarations,
// bad magic, future format versions, and out-of-range indices (dim
// mismatch).
func TestModelRejectsCorruption(t *testing.T) {
	m := testModel(KindLasso, 200, 13, 4)
	good, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}

	reject := func(name string, mutate func([]byte) []byte, wantSub string) {
		t.Helper()
		data := mutate(append([]byte(nil), good...))
		_, err := decodeModel(data)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	reject("flipped value bit", func(d []byte) []byte {
		d[modelHeaderSize+8*len(m.Idx)+3] ^= 0x40
		return d
	}, "checksum")
	reject("truncated", func(d []byte) []byte { return d[:len(d)-9] }, "checksum")
	reject("truncated body", func(d []byte) []byte { return wire.CRC64.Seal(d[:len(d)-9]) }, "declares")
	reject("appended garbage", func(d []byte) []byte { return wire.CRC64.Seal(append(d[:len(d)-8], 0xff)) }, "trailing")
	reject("bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, "magic")
	reject("future version", func(d []byte) []byte {
		d[8] = 99
		return rechecksum(d)
	}, "format version")
	reject("dim mismatch", func(d []byte) []byte {
		// Shrink the declared feature count below the largest index.
		d[16] = byte(m.Idx[len(m.Idx)-1]) // features := maxIdx (< maxIdx+1 needed)
		for i := 17; i < 24; i++ {
			d[i] = 0
		}
		return rechecksum(d)
	}, "dim mismatch")
	reject("unordered indices", func(d []byte) []byte {
		// Swap the first two stored indices.
		a := append([]byte(nil), d[modelHeaderSize:modelHeaderSize+8]...)
		copy(d[modelHeaderSize:], d[modelHeaderSize+8:modelHeaderSize+16])
		copy(d[modelHeaderSize+8:], a)
		return rechecksum(d)
	}, "increasing")
}

// rechecksum recomputes the trailing CRC after a deliberate mutation, so
// the test reaches the validation being targeted instead of the checksum
// gate.
func rechecksum(d []byte) []byte {
	return wire.CRC64.Seal(append([]byte(nil), d[:len(d)-8]...))
}

// TestModelReadsOlderBuilds: the FuzzLoadModel seed-00-valid corpus file
// is a .sacm image written by the encoder that predates internal/wire.
// It must decode to the model it was written from and re-encode to the
// same bytes, so a registry keeps serving models across an upgrade.
func TestModelReadsOlderBuilds(t *testing.T) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoadModel", "seed-00-valid"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(corpus)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("unexpected corpus file:\n%s", corpus)
	}
	img, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeModel([]byte(img))
	if err != nil {
		t.Fatal(err)
	}
	want := &Model{Kind: KindLasso, Features: 5, TrainRows: 7, Lambda: 0.3, Version: 4, Idx: []int{1, 3, 4}, Val: []float64{1.5, -2, 0.25}}
	if got := fmt.Sprint(modelFields(m)); got != fmt.Sprint(modelFields(want)) {
		t.Fatalf("decoded %s, want %s", got, fmt.Sprint(modelFields(want)))
	}
	back, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != img {
		t.Fatalf("re-encoded model differs from the stored image:\n got  %x\n want %x", back, img)
	}
}

// randRequestCSR builds random sparse request rows of width n.
func randRequestCSR(rng *rand.Rand, rows, n int) *sparse.CSR {
	coo := sparse.NewCOO(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// TestModelScoreMatchesDense: Score agrees exactly with the dense
// expansion product and validates shapes.
func TestModelScoreMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := testModel(KindLasso, 60, 8, 5)
	rows := randRequestCSR(rng, 40, m.Features)
	y := make([]float64, rows.M)
	if err := m.Score(rows, 1, y); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, rows.M)
	rows.MulVec(m.Dense(), want)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("row %d: %v != %v", i, y[i], want[i])
		}
	}
	if err := m.Score(rows, 1, y[:1]); err == nil {
		t.Fatal("short output accepted")
	}
	narrow := randRequestCSR(rng, 3, m.Features+5)
	if err := m.Score(narrow, 1, make([]float64, 3)); err == nil {
		t.Fatal("feature-width mismatch accepted")
	}
}
