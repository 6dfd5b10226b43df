package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.sack")
	want := []byte("generation one")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	// Overwrite: the rename must replace, not append or fail.
	want2 := []byte("generation two, longer than the first")
	if err := WriteFile(path, want2); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want2) {
		t.Fatalf("read back %q, want %q", got, want2)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}
}

func TestWriteFileFailsIntoMissingDir(t *testing.T) {
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
