package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saco/internal/sparse"
)

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
	got, _, err := decodeModel(buf, false)
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
	got, _, err := decodeModel(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Features != 50 || got.NNZ() != 0 {
		t.Fatalf("got %d features, %d nnz", got.Features, got.NNZ())
	}
}

// TestLoadModelFileAutoDetect: the loader takes the binary format and
// nothing else — the read side of the historical text format (one
// value per line, what `sasolve -out model.txt` still writes) is gone,
// and its refusal names the format and the migration in both load modes.
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
		for _, mode := range []LoadMode{LoadCopy, LoadMmap} {
			_, err := LoadModelFileMode(path, mode)
			if err == nil {
				t.Fatalf("%s under %v: accepted", tc.name, mode)
			}
			for _, want := range []string{"text model format", "sasolve -out model.sacm"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s under %v: error %q does not mention %q", tc.name, mode, err, want)
				}
			}
		}
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
		_, _, err := decodeModel(data, false)
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
	reject("truncated", func(d []byte) []byte { return d[:len(d)-9] }, "declares")
	reject("appended garbage", func(d []byte) []byte { return append(d, 0xff) }, "declares")
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

// rechecksum fixes up the trailing CRC after a deliberate header
// mutation, so the test reaches the validation being targeted instead
// of the checksum gate.
func rechecksum(d []byte) []byte {
	binary.LittleEndian.PutUint64(d[len(d)-8:], crc64.Checksum(d[:len(d)-8], crcTable))
	return d
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
