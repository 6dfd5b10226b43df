// Package libsvm reads and writes the LIBSVM sparse text format used by
// every dataset in the paper's evaluation (Tables II and IV):
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based and strictly increasing within a line; lines
// starting with '#' and blank lines are ignored. The reader streams, so
// url-scale files do not need to fit in memory twice. For files whose
// CSR does not fit in memory at all, package stream ingests the same
// format into an out-of-core shard store through the RowParser exported
// here.
//
// There is one tokenizer: RowParser.ParseBytes, one pass over the raw
// bytes of a line, allocating nothing once its buffers are warm. Read,
// stream's ingestion, serve's /predict and /learn bodies and the string
// form Parse all call it, so no caller splits fields or looks for a
// label on its own. White space is unicode.IsSpace, as it was when the
// fields were split by package strings: U+0085, U+00A0, U+2028 … count.
//
// Numbers have one scanner too, scanDecimal, and ParseBytes reads each
// field where it lies, once: splitIndex reads the index digits up to the
// ':', scanDecimal reads the value from the next byte — its sign, up to
// 19 significant digits into a uint64, eight ASCII digits to a word
// (the SWAR step of Lemire, "Number Parsing at a Gigabyte per Second",
// Software: Practice and Experience 51(8), 2021, whose wrap-around
// multiply leaves the same bits as the per-digit loop), and a decimal
// exponent — and stops at the first byte outside its grammar.
// Eisel–Lemire turns the digits into the correctly rounded float64. When
// that byte is white space or the end of the line, the field is done:
// no field-end scan and no second pass. The label is read the same way.
//
// strconv is the reference and decides everything else. Any other
// outcome — a value the scanner declines (more digits, hex, inf, nan, a
// near-halfway number), a stray byte after it, an index that is not 1 …
// 18 digits, a duplicate or out-of-order index — sends the field back to
// its start, where it is measured to the next white space and decided
// whole: by the scanner where it can, by strconv.ParseFloat and
// strconv.Atoi where it cannot. Every verdict, value and error text is
// therefore strconv's.
package libsvm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"saco/internal/sparse"
)

// maxLine is the line cap of the in-memory reader. The widest
// plausible rows (url: 3M features) fit comfortably; rows beyond it are
// reported with their line number so the caller can switch to the
// streaming reader, which has no cap.
const maxLine = 1 << 26

// RowParser parses LIBSVM data lines into reusable buffers. It is the
// single row grammar shared by Read and the out-of-core ingestion of
// package stream, so both paths accept and reject exactly the same
// inputs.
type RowParser struct {
	// Cols and Vals hold the parsed feature pairs of the last Parse call
	// (0-based column indices, explicit zeros dropped). They are reused
	// across calls.
	Cols []int
	Vals []float64

	// maxCol is the largest index of the last Parse call, counting
	// explicit zeros: "n:0" is the conventional way to declare a file's
	// dimensionality, so dropped values still widen the matrix.
	maxCol int
}

// Parse is ParseBytes on a string, with the label required.
func (p *RowParser) Parse(line string, lineNo int) (float64, error) {
	label, _, err := p.ParseBytes(unsafe.Slice(unsafe.StringData(line), len(line)), lineNo, false)
	return label, err
}

// ParseBytes parses one non-empty, non-comment data line, returning its
// label. lineNo is used only for error messages. Feature indices must be
// ≥ 1 and strictly increasing; duplicate and out-of-order indices are
// rejected with a line-numbered error because they break the CSR
// invariant (strictly increasing columns within a row) every downstream
// kernel relies on. The label and every value must be finite: one NaN or
// ±Inf row would poison every solve, stream build and refit it reaches.
//
// With optionalLabel a first field containing ':' is the first feature
// and the label is 0 (request rows carry none); labeled reports which
// it was, and is valid even when err is not nil. Without it the first
// field is always the label. line is only read, never retained.
func (p *RowParser) ParseBytes(line []byte, lineNo int, optionalLabel bool) (label float64, labeled bool, err error) {
	p.Cols = p.Cols[:0]
	p.Vals = p.Vals[:0]
	p.maxCol = -1
	prev, first := -1, true
	for i := 0; ; {
		if i = skipSpace(line, i); i == len(line) {
			break
		}
		// The field read where it lies: the index digits up to ':', then
		// the number from the next byte. When the first byte the number's
		// grammar does not take is white space or the end of the line, the
		// field is done and valid (scanDecimal takes only finite numbers),
		// and nothing reads it again.
		s := unsafe.String(&line[i], len(line)-i)
		colon, idx, digits := splitIndex(s)
		if first && (!optionalLabel || !digits) {
			if v, n, ok := scanDecimal(s); ok && (i+n == len(line) || spaceAt(line, i+n) > 0) {
				label, labeled, first = v, true, false
				i += n
				continue
			}
		} else if digits && idx-1 > prev {
			j := i + colon + 1
			if v, n, ok := scanDecimal(s[colon+1:]); ok && (j+n == len(line) || spaceAt(line, j+n) > 0) {
				first, prev, p.maxCol = false, idx-1, idx-1
				if v != 0 {
					p.Cols = append(p.Cols, prev)
					p.Vals = append(p.Vals, v)
				}
				i = j + n
				continue
			}
		}
		// Anything else is measured and decided from the field's start:
		// strconv's verdicts, and every error text.
		start := i
		// A field runs to the next white space, which no byte in
		// ['!', 0x7f] can start: skip words of eight such bytes (any other
		// byte sets a high bit in the expression), then finish by the byte.
		for i+8 <= len(line) {
			w := binary.LittleEndian.Uint64(line[i:])
			if ((w-lsb*'!')&^w|w)&(lsb<<7) != 0 {
				break
			}
			i += 8
		}
		for i < len(line) && spaceAt(line, i) == 0 {
			i++
		}
		// A view, not a copy: strconv clones what its errors quote.
		f := unsafe.String(&line[start], i-start)
		if !digits { // a ':' of splitIndex's lies before any white space
			colon = strings.IndexByte(f, ':')
		}
		if first {
			first = false
			if labeled = !optionalLabel || colon < 0; labeled {
				if label, err = parseFloat(f); err != nil {
					return 0, true, fmt.Errorf("libsvm: line %d: bad label %q: %v", lineNo, f, err)
				}
				if !finite(label) {
					return 0, true, fmt.Errorf("libsvm: line %d: bad label %q: not finite", lineNo, f)
				}
				continue
			}
		}
		if colon <= 0 {
			return 0, labeled, fmt.Errorf("libsvm: line %d: bad feature %q", lineNo, f)
		}
		var err error
		if !digits {
			idx, err = strconv.Atoi(f[:colon])
		}
		if err != nil || idx < 1 {
			return 0, labeled, fmt.Errorf("libsvm: line %d: bad index %q", lineNo, f[:colon])
		}
		v, err := parseFloat(f[colon+1:])
		if err != nil {
			return 0, labeled, fmt.Errorf("libsvm: line %d: bad value %q: %v", lineNo, f[colon+1:], err)
		}
		if !finite(v) {
			return 0, labeled, fmt.Errorf("libsvm: line %d: bad value %q: not finite", lineNo, f[colon+1:])
		}
		col := idx - 1
		switch {
		case col == prev:
			return 0, labeled, fmt.Errorf("libsvm: line %d: duplicate index %d", lineNo, idx)
		case col < prev:
			return 0, labeled, fmt.Errorf("libsvm: line %d: index %d out of order after %d", lineNo, idx, prev+1)
		}
		prev = col
		p.maxCol = col
		if v != 0 {
			p.Cols = append(p.Cols, col)
			p.Vals = append(p.Vals, v)
		}
	}
	if first {
		return 0, false, fmt.Errorf("libsvm: line %d: empty row", lineNo)
	}
	return label, labeled, nil
}

// finite reports whether v is neither NaN nor ±Inf, the values
// strconv.ParseFloat accepts ("nan", "inf", "infinity") that no data
// row may carry: v − v is 0 exactly for finite v and NaN otherwise.
func finite(v float64) bool { return v-v == 0 }

// lsb has the lowest bit of each byte of a word set.
const lsb = 0x0101010101010101

// skipSpace returns the index of the first byte of b at or after i that
// does not start a white-space rune, len(b) when there is none.
func skipSpace(b []byte, i int) int {
	for i < len(b) && spaceAt(b, i) > 0 {
		i += spaceAt(b, i)
	}
	return i
}

// asciiSpace is 1 at the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceAt returns the width in bytes of the white-space rune at b[i],
// or 0 when the rune there (or the invalid byte) is not white space.
func spaceAt(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpace(b, i)
}

// wideSpace is spaceAt for a rune outside ASCII, kept apart so that
// spaceAt inlines.
func wideSpace(b []byte, i int) int {
	if r, w := utf8.DecodeRune(b[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// MaxCol returns the largest parsed column index of the last Parse
// call, or -1 when the row declared no features. Explicit zeros count:
// their values are dropped from storage, but "n:0" still declares the
// matrix at least n wide (and must still respect a declared width).
func (p *RowParser) MaxCol() int { return p.maxCol }

// Skip reports whether a raw input line carries no data (blank or
// comment) and should not reach Parse.
func Skip(line string) bool {
	return SkipBytes(unsafe.Slice(unsafe.StringData(line), len(line)))
}

// SkipBytes is Skip on the raw bytes of a line.
func SkipBytes(line []byte) bool {
	i := skipSpace(line, 0)
	return i == len(line) || line[i] == '#'
}

// Read parses a LIBSVM stream. n is the number of features; pass 0 to
// infer it from the largest index seen.
func Read(r io.Reader, n int) (*sparse.CSR, []float64, error) {
	return read(r, n, maxLine)
}

// read is Read with an explicit line cap, separated so tests can
// exercise the oversized-row path without materializing a 64 MiB line.
func read(r io.Reader, n, limit int) (*sparse.CSR, []float64, error) {
	var (
		rowPtr       = []int{0}
		colIdx       []int
		vals, labels []float64
	)
	maxCol, err := Scan(r, limit, func(label float64, p *RowParser) error {
		labels = append(labels, label)
		colIdx = append(colIdx, p.Cols...)
		vals = append(vals, p.Vals...)
		rowPtr = append(rowPtr, len(vals))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if n, err = Width(maxCol, n); err != nil {
		return nil, nil, err
	}
	a, err := sparse.NewCSR(len(labels), n, rowPtr, colIdx, vals)
	if err != nil {
		return nil, nil, err
	}
	return a, labels, nil
}

// Scan is the one LIBSVM line reader, under both Read and package
// stream's ingestion: it parses each data line of r into one RowParser
// (blank and comment lines skipped) and calls row with the line's label,
// stopping at row's first error. It returns the largest column index
// seen, -1 for none. A positive limit caps a line at that many bytes,
// terminator included — the in-memory reader's cap; 0 reads lines of any
// length.
func Scan(r io.Reader, limit int, row func(label float64, p *RowParser) error) (maxCol int, err error) {
	var (
		br     = bufio.NewReaderSize(r, 1<<20)
		line   []byte
		parser RowParser
	)
	maxCol = -1
	for lineNo := 1; ; lineNo++ {
		line, err = readLine(br, line[:0], limit)
		if err == errLineTooLong {
			return -1, fmt.Errorf("libsvm: line %d: row exceeds the %d-byte in-memory reader cap (the streaming reader in internal/stream has no cap)", lineNo, limit)
		}
		if err != nil && err != io.EOF {
			return -1, fmt.Errorf("libsvm: %v", err)
		}
		atEOF := err == io.EOF
		if !SkipBytes(line) {
			label, _, perr := parser.ParseBytes(line, lineNo, false)
			if perr == nil {
				perr = row(label, &parser)
			}
			if perr != nil {
				return -1, perr
			}
			maxCol = max(maxCol, parser.MaxCol())
		}
		if atEOF {
			return maxCol, nil
		}
	}
}

// errLineTooLong is readLine's refusal of a line past its limit.
var errLineTooLong = errors.New("libsvm: line too long")

// readLine appends br's next line to dst without its terminator ("\n"
// or "\r\n"), growing past br's buffer as needed, and returns io.EOF
// with the final unterminated line, if any. A positive limit refuses a
// line longer than limit bytes, terminator included, with
// errLineTooLong.
func readLine(br *bufio.Reader, dst []byte, limit int) ([]byte, error) {
	for {
		chunk, err := br.ReadSlice('\n')
		dst = append(dst, chunk...)
		if limit > 0 && len(dst) > limit {
			return dst, errLineTooLong
		}
		switch err {
		case nil:
			dst = dst[:len(dst)-1]
			if len(dst) > 0 && dst[len(dst)-1] == '\r' {
				dst = dst[:len(dst)-1]
			}
			return dst, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return dst, err
		}
	}
}

// Width returns the feature count of rows whose largest column index is
// maxCol: n when declared (n > 0), refusing an index past it, and
// maxCol+1 when n is 0.
func Width(maxCol, n int) (int, error) {
	if n == 0 {
		return maxCol + 1, nil
	}
	if maxCol >= n {
		return 0, fmt.Errorf("libsvm: index %d exceeds declared features %d", maxCol+1, n)
	}
	return n, nil
}

// ReadFile reads a LIBSVM file from disk.
func ReadFile(path string, n int) (a *sparse.CSR, labels []float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		// A close error on the read path is rare but can flag delayed
		// I/O failures (e.g. NFS); don't let it vanish on success.
		if cerr := f.Close(); cerr != nil && err == nil {
			a, labels, err = nil, nil, cerr
		}
	}()
	return Read(f, n)
}

// Write emits a in LIBSVM format with the given labels.
func Write(w io.Writer, a *sparse.CSR, labels []float64) error {
	if len(labels) != a.M {
		return fmt.Errorf("libsvm: %d labels for %d rows", len(labels), a.M)
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < a.M; i++ {
		if _, err := fmt.Fprintf(bw, "%g", labels[i]); err != nil {
			return err
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, " %d:%g", a.ColIdx[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes a LIBSVM file to disk. The file is synced before
// close so that a short write on a full disk surfaces as an error
// instead of silent success.
func WriteFile(path string, a *sparse.CSR, labels []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a, labels); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	return f.Close()
}
