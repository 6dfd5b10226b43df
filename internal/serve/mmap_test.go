package serve

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"saco/internal/stream"
)

// TestLoadModelFileMmap: the mmap load reproduces the copy load bit
// for bit — header, indices, coefficients, and scores.
func TestLoadModelFileMmap(t *testing.T) {
	if !stream.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	m := testModel(KindLasso, 500, 37, 7)
	m.Version = 3
	path := filepath.Join(t.TempDir(), "m.sacm")
	if err := WriteModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	copied, err := LoadModelFileMode(path, LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadModelFileMode(path, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Kind != copied.Kind || mapped.Features != copied.Features ||
		mapped.TrainRows != copied.TrainRows || mapped.Lambda != copied.Lambda ||
		mapped.Version != copied.Version || mapped.NNZ() != copied.NNZ() {
		t.Fatalf("header mismatch: %+v vs %+v", mapped, copied)
	}
	for k := range copied.Idx {
		if mapped.Idx[k] != copied.Idx[k] ||
			math.Float64bits(mapped.Val[k]) != math.Float64bits(copied.Val[k]) {
			t.Fatalf("coef %d differs between load modes", k)
		}
	}

	// Scoring through the mapped model is bitwise the copy path.
	a := randRequestCSR(newTestRng(11), 16, copied.Features)
	yc := make([]float64, a.M)
	ym := make([]float64, a.M)
	if err := copied.Score(a, 1, yc); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Score(a, 1, ym); err != nil {
		t.Fatal(err)
	}
	for i := range yc {
		if math.Float64bits(yc[i]) != math.Float64bits(ym[i]) {
			t.Fatalf("score %d: %x != %x", i, yc[i], ym[i])
		}
	}
	runtime.KeepAlive(mapped)
}

// TestLoadModelFileMmapCorrupt: a flipped payload byte fails the CRC in
// mmap mode exactly as in copy mode — the mapping is never trusted.
func TestLoadModelFileMmapCorrupt(t *testing.T) {
	if !stream.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	m := testModel(KindSVM, 200, 15, 5)
	path := filepath.Join(t.TempDir(), "m.sacm")
	if err := WriteModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[modelHeaderSize+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFileMode(path, LoadMmap); err == nil {
		t.Fatal("corrupt model must not load via mmap")
	}
	if _, err := LoadModelFileMode(path, LoadCopy); err == nil {
		t.Fatal("corrupt model must not load via copy")
	}
}

// TestRegistryMmapMode: a registry opened in mmap mode publishes,
// polls and serves like the copy-mode registry.
func TestRegistryMmapMode(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistryMode(dir, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(testModel(KindLasso, 50, 7, 1)); err != nil {
		t.Fatal(err)
	}
	// A second handle sees the artifact through its own mmap poll.
	reg2, err := OpenRegistryMode(dir, LoadMmap)
	if err != nil {
		t.Fatal(err)
	}
	m := reg2.Current()
	if m == nil || m.Version != 1 || m.NNZ() != 7 {
		t.Fatalf("mmap registry served %+v", m)
	}
}

// newTestRng is the deterministic source the request generators use.
func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
