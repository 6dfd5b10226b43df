package libsvm

import (
	"strings"
	"testing"
)

// FuzzRowParser: the single row grammar shared by the in-memory reader
// and the out-of-core ingestion must never panic and never accept a row
// that violates the CSR invariants — whatever bytes arrive. Malformed
// input is an error, full stop. The seed corpus under
// testdata/fuzz/FuzzRowParser is checked in, so `go test` replays it as
// unit tests even without -fuzz.
func FuzzRowParser(f *testing.F) {
	seeds := []string{
		"1 1:1 2:0.5 7:-3",
		"-1 3:1e300 4:-1e-300",
		"+1.5e2 1:0.1",
		"1",
		"1 4294967295:1",
		"1 1:1 1:2",     // duplicate index
		"1 5:1 2:1",     // out of order
		"x 1:1",         // bad label
		"1 0:1",         // index below 1
		"1 1:",          // empty value
		"1 :1",          // empty index
		"1 1:0 2:0 3:0", // explicit zeros declare width
		"1 00000000001:1",
		"1 1:NaN 2:Inf",
		"\x00\xff \x01:\x02",
		"1 18446744073709551616:1", // overflows uint64
		"1 1:1 2:+0 3:-0",
		// Values ending at non-ASCII white space, a tab and the line's end,
		// and fields the in-place pass must hand back to the slow path.
		"1 1:0.5\u00852:1.5\u00a03:2.5\u20284:3.5\t5:4.5",
		"1 1:1e5x", "1 1:.5", "1 1:5.", "1 1:1e+", "+1:2", "01:2",
		"1 123456789012345678:1", "1 1234567890123456789:1", // 18 and 19 digits
		"1 1:12345678901234567890", // 20 significant digits
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var p RowParser
		label, err := p.Parse(line, 1)
		if err != nil {
			// Rejected rows must not leave stale state behind that a
			// reuse of the parser could pick up as data.
			return
		}
		// Accepted rows must satisfy every invariant the CSR builders
		// rely on: paired arrays, strictly increasing 0-based columns,
		// no explicit zeros stored, MaxCol covering every stored column,
		// and nothing beyond the input's own field count.
		if len(p.Cols) != len(p.Vals) {
			t.Fatalf("cols/vals length mismatch: %d vs %d", len(p.Cols), len(p.Vals))
		}
		if fields := len(strings.Fields(line)); len(p.Cols) > fields {
			t.Fatalf("parsed %d features from %d fields (over-allocation)", len(p.Cols), fields)
		}
		prev := -1
		for k, c := range p.Cols {
			if c <= prev {
				t.Fatalf("columns not strictly increasing at %d: %v", k, p.Cols)
			}
			if p.Vals[k] == 0 {
				t.Fatalf("explicit zero stored at column %d", c)
			}
			prev = c
		}
		if prev > p.MaxCol() {
			t.Fatalf("MaxCol %d below largest stored column %d", p.MaxCol(), prev)
		}
		if p.MaxCol() >= 0 && p.MaxCol() < prev {
			t.Fatalf("MaxCol %d inconsistent with %v", p.MaxCol(), p.Cols)
		}
		_ = label
	})
}

// FuzzRead drives the whole in-memory reader (scanner, comments, width
// checks, CSR assembly): any input either parses into a valid CSR or
// errors — no panics, no constraint violations.
func FuzzRead(f *testing.F) {
	f.Add("1 1:1 3:0.5\n-1 2:-1 4:2\n")
	f.Add("# comment\n\n1 1:1\n")
	f.Add("1 1:0\n")
	f.Add("1 2:1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		a, labels, err := Read(strings.NewReader(text), 0)
		if err != nil {
			return
		}
		if a.M != len(labels) {
			t.Fatalf("%d rows, %d labels", a.M, len(labels))
		}
		// NewCSR's invariants were already checked inside Read; spot
		// check the column bound nonetheless.
		for _, c := range a.ColIdx {
			if c < 0 || c >= a.N {
				t.Fatalf("column %d out of [0,%d)", c, a.N)
			}
		}
	})
}
