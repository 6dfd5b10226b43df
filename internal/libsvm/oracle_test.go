package libsvm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The oracle: the strings.Fields-based row parser and strings.TrimSpace
// skip test that RowParser.Parse and Skip were before the byte-level
// tokenizer replaced them, kept verbatim — apart from the finiteness
// rule both gained later — so the differential tests can hold the
// tokenizer to the grammar they defined.

type oracleRow struct {
	cols   []int
	vals   []float64
	maxCol int
}

func oracleParse(line string, lineNo int) (float64, oracleRow, error) {
	row := oracleRow{maxCol: -1}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, row, fmt.Errorf("libsvm: line %d: empty row", lineNo)
	}
	label, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, row, fmt.Errorf("libsvm: line %d: bad label %q: %v", lineNo, fields[0], err)
	}
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return 0, row, fmt.Errorf("libsvm: line %d: bad label %q: not finite", lineNo, fields[0])
	}
	prev := -1
	for _, f := range fields[1:] {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 {
			return 0, row, fmt.Errorf("libsvm: line %d: bad feature %q", lineNo, f)
		}
		idx, err := strconv.Atoi(f[:colon])
		if err != nil || idx < 1 {
			return 0, row, fmt.Errorf("libsvm: line %d: bad index %q", lineNo, f[:colon])
		}
		v, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return 0, row, fmt.Errorf("libsvm: line %d: bad value %q: %v", lineNo, f[colon+1:], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, row, fmt.Errorf("libsvm: line %d: bad value %q: not finite", lineNo, f[colon+1:])
		}
		col := idx - 1
		switch {
		case col == prev:
			return 0, row, fmt.Errorf("libsvm: line %d: duplicate index %d", lineNo, idx)
		case col < prev:
			return 0, row, fmt.Errorf("libsvm: line %d: index %d out of order after %d", lineNo, idx, prev+1)
		}
		prev = col
		row.maxCol = col
		if v != 0 {
			row.cols = append(row.cols, col)
			row.vals = append(row.vals, v)
		}
	}
	return label, row, nil
}

func oracleSkip(line string) bool {
	line = strings.TrimSpace(line)
	return line == "" || strings.HasPrefix(line, "#")
}

// oracleSniff is the label test serve's second tokenizer made before it
// called Parse: a first field with a ':' is a feature, the line gets a
// synthesized "0 " label, and the row counts as unlabeled.
func oracleSniff(line string) (withLabel string, labeled bool) {
	if fields := strings.Fields(line); len(fields) > 0 && strings.Contains(fields[0], ":") {
		return "0 " + line, false
	}
	return line, true
}

// differentialLines are inputs the byte path and the oracle must agree
// on; they also seed FuzzParseBytesVsString.
var differentialLines = []string{
	"1 1:1 2:0.5 7:-3",
	"1:1 2:0.5 7:-3",
	"  \t+1.5e2   1:0.1\r",
	"1 1:1 2:+0 3:-0 4:0",
	"1\u00851:1\u00a02:2\u20283:3\u30004:4", // NEL, NBSP, LS, ideographic space
	"\u00a0# a comment behind a no-break space",
	"\u2029",
	"1 1:1\xc2",            // truncated NEL: an invalid byte, not a space
	"1 1:1\xe2\x80 2:2",    // truncated U+2028
	"1 1:1\xc0\xa0 2:2",    // overlong space
	"1 1:1\xe2\xc2\x852:2", // invalid lead byte, then a real NEL
	"é 1:1",
	"1 1:1é",
	"1 ::1", "1 1::1", "1 :", ":", "1: 2", "1:2:3 4:5",
	"1 +3:1 4:1", "1 -0:1", "1 0x1:1", "1 1_0:1", "1 9223372036854775807:1", "1 9223372036854775808:1",
	"1 0000000000000000000000007:1",
	"+5:1", "00000000000000000001:1", "9223372036854775807:1", "9223372036854775808:1", "-0:1",
	"1 999999999999999999:1 1000000000000000000:1", "1 1:1 000000000000000002:1 0000000000000000003:1",
	"1 1:0x1p-2 2:1_0 3:infinity 4:-nan",
	"1 1:1e999 2:1e-999",
	"nan 1:1", "inf", "0x10 2:1",
	"1 1:nan 2:1", "1 1:1 2:-Inf", "1:+infinity", "-infinity 1:1", "1 1:1e308 2:-1e308 3:5e-324",
	"1 5:1 5:2", "1 5:0 5:0", "1 5:1 2:1", "1 5:0 2:0",
	"#", " #x", "x#", "",
	"1 1:1 # trailing comment is a bad feature",
	// Fields the in-place pass finishes, or hands back to the slow path.
	"1 1:0.5\u00852:1.5\u00a03:2.5\u20284:-3.5e-2\t5:6", "-2.5\u0085 1:1", "1:2.5", "1 1:12345678.87654321",
	"1 1:1e5x", "1 1:.5", "1 1:5.", "1 1:1e+", "1 1:1e+ 2:2", "1 1:5.e3", "+1:2", "01:2", "1 01:2 2:3",
	"1 123456789012345678:1", "1 1234567890123456789:1", "1 1:12345678901234567890 2:1.2345678901234567890e5",
	"1 1:1e5:2", "1:2:3", "1 2:1 2:1", "1 3:1 2:1", "1 1:-0 2:0.0e7",
}

// checkAgainstOracle holds one line to the oracle in both label modes,
// and Skip to oracleSkip.
func checkAgainstOracle(t *testing.T, p *RowParser, line string) {
	t.Helper()
	if got, want := SkipBytes([]byte(line)), oracleSkip(line); got != want || Skip(line) != want {
		t.Fatalf("%q: SkipBytes=%v Skip=%v, oracle %v", line, got, Skip(line), want)
	}
	for _, optional := range []bool{false, true} {
		in, wantLabeled := line, true
		if optional {
			in, wantLabeled = oracleSniff(line)
		}
		wantLabel, want, wantErr := oracleParse(in, 7)
		label, labeled, err := p.ParseBytes([]byte(line), 7, optional)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q optional=%v:\n bytes  %v\n oracle %v", line, optional, err, wantErr)
		}
		if labeled != wantLabeled && strings.TrimSpace(line) != "" { // an empty row has no first field to classify
			t.Fatalf("%q optional=%v: labeled=%v, oracle %v", line, optional, labeled, wantLabeled)
		}
		if err != nil {
			continue
		}
		if math.Float64bits(label) != math.Float64bits(wantLabel) || p.MaxCol() != want.maxCol {
			t.Fatalf("%q optional=%v: label %v maxCol %d, oracle %v %d", line, optional, label, p.MaxCol(), wantLabel, want.maxCol)
		}
		if len(p.Cols) != len(want.cols) || len(p.Vals) != len(want.vals) {
			t.Fatalf("%q optional=%v: %d cols %d vals, oracle %d %d", line, optional, len(p.Cols), len(p.Vals), len(want.cols), len(want.vals))
		}
		for k := range want.cols {
			if p.Cols[k] != want.cols[k] || math.Float64bits(p.Vals[k]) != math.Float64bits(want.vals[k]) {
				t.Fatalf("%q optional=%v: feature %d is %d:%v, oracle %d:%v", line, optional, k, p.Cols[k], p.Vals[k], want.cols[k], want.vals[k])
			}
		}
	}
	// The string form is the byte form with the label required.
	wantLabel, _, wantErr := oracleParse(line, 7)
	label, err := p.Parse(line, 7)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() ||
		err == nil && math.Float64bits(label) != math.Float64bits(wantLabel) {
		t.Fatalf("%q: Parse gives (%v, %v), oracle (%v, %v)", line, label, err, wantLabel, wantErr)
	}
}

func TestParseBytesMatchesOracle(t *testing.T) {
	var p RowParser // one parser throughout: stale state must not leak between rows
	for _, line := range differentialLines {
		checkAgainstOracle(t, &p, line)
	}
}

// FuzzParseBytesVsString: on every input the byte tokenizer and the
// strings.Fields oracle give the same verdict, the same error text and
// bit-identical rows, with the label required and optional.
func FuzzParseBytesVsString(f *testing.F) {
	for _, s := range differentialLines {
		f.Add(s)
	}
	var p RowParser
	f.Fuzz(func(t *testing.T, line string) {
		checkAgainstOracle(t, &p, line)
	})
}

// TestParseBytesAllocatesNothing: a warm parser tokenizes a row without
// touching the heap.
func TestParseBytesAllocatesNothing(t *testing.T) {
	var sb strings.Builder
	for k := 1; k <= 48; k++ {
		fmt.Fprintf(&sb, "%d:%s ", 11*k, strconv.FormatFloat(1/float64(k)-0.3, 'g', -1, 64))
	}
	unlabeled := []byte(sb.String())
	labeled := append([]byte("-1 "), unlabeled...)
	var p RowParser
	if _, _, err := p.ParseBytes(labeled, 1, true); err != nil || len(p.Cols) != 48 {
		t.Fatalf("warm-up: %v, %d features", err, len(p.Cols))
	}
	for name, line := range map[string][]byte{"labeled": labeled, "unlabeled": unlabeled} {
		if n := testing.AllocsPerRun(100, func() {
			if SkipBytes(line) {
				t.Fatal("data row skipped")
			}
			if _, _, err := p.ParseBytes(line, 1, true); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s row: %v allocs per parse, want 0", name, n)
		}
	}
}

// BenchmarkParseBytes tokenizes one 48-feature request row (17
// significant digits per value, the benchmark's traffic shape).
func BenchmarkParseBytes(b *testing.B) {
	var sb strings.Builder
	for k := 1; k <= 48; k++ {
		fmt.Fprintf(&sb, "%d:%s ", 170*k, strconv.FormatFloat(math.Sin(float64(k)), 'g', -1, 64))
	}
	line := []byte(sb.String())
	var p RowParser
	b.SetBytes(int64(len(line)))
	for b.Loop() {
		if _, _, err := p.ParseBytes(line, 1, true); err != nil {
			b.Fatal(err)
		}
	}
}
