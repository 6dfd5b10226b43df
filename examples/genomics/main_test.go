package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden pins the example's report byte for byte: the
// path's objectives and supports, the SA support check and the elastic
// net line over the dense leu replica.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/golden.txt:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
