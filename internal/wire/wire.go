// Package wire is the one binary codec of the repository. Every format
// that crosses a disk or a socket — stream shards and manifests, .sack
// checkpoints, .sacm models, TCP control and data frames — turns its
// counts and numbers into little-endian bytes and back here, so the rule
// for trusting a count that came from outside the process lives in one
// place:
//
//   - Writer appends fields to a buffer the caller supplies;
//   - Reader is a sticky-error cursor over an image: Count bounds every
//     count by the bytes left before the caller sizes an allocation with
//     it, Done refuses trailing bytes, and every refusal is an *Error
//     naming the format and the field;
//   - CRC64 and CRC32 append a checksum trailer to a body and verify it;
//   - WriteFile publishes a file atomically (temp file, fsync, rename).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"math"
	"unsafe"
)

var le = binary.LittleEndian

// Writer appends little-endian fields to B. Callers that know the
// encoded size start B with that capacity, and the writes then allocate
// nothing.
type Writer struct{ B []byte }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// U32 appends v in 4 bytes.
func (w *Writer) U32(v uint32) { w.B = le.AppendUint32(w.B, v) }

// U64 appends v in 8 bytes.
func (w *Writer) U64(v uint64) { w.B = le.AppendUint64(w.B, v) }

// F64 appends v's IEEE-754 bits in 8 bytes.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// F64s appends every element of v as F64 does. On a little-endian host
// a float64's memory is its encoding, and the payload is appended with
// one copy; elsewhere word by word.
func (w *Writer) F64s(v []float64) {
	if nativeLE {
		w.B = append(w.B, f64Bytes(v)...)
		return
	}
	w.B = appendF64sWords(w.B, v)
}

// nativeLE reports whether this host stores a float64 in the codec's
// byte order, so that F64s can move a payload as one copy.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views v's memory as its 8·len(v) bytes.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// appendF64sWords appends v one word at a time: the big-endian path of
// Writer.F64s, and the tests' oracle for the one-copy path.
func appendF64sWords(b []byte, v []float64) []byte {
	for _, x := range v {
		b = le.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeF64sWords fills dst from p one word at a time: the big-endian
// path of Reader.F64s, and the tests' oracle for the one-copy path.
func decodeF64sWords(dst []float64, p []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
}

// Bytes appends b verbatim.
func (w *Writer) Bytes(b []byte) { w.B = append(w.B, b...) }

// Error is a refused image: which format, which field, and why.
type Error struct {
	Format string // the format being decoded, e.g. "shard" or ".sack"
	Field  string // the field whose read or check failed
	Msg    string
}

func (e *Error) Error() string { return e.Format + ": " + e.Field + ": " + e.Msg }

// Reader reads little-endian fields from an image front to back. The
// first failure sticks: every later read returns zero and consumes
// nothing, so a decoder reads a run of fields and checks Err or Done
// once. A Reader is a value, and it allocates only to report a refusal.
type Reader struct {
	format string
	b      []byte
	err    error
}

// NewReader starts reading image b of the named format.
func NewReader(format string, b []byte) Reader { return Reader{format: format, b: b} }

// Fail refuses the image at field unless an earlier failure stands.
// Decoders call it for checks of their own, so a field's value and its
// refusal share one error path.
func (r *Reader) Fail(field, format string, args ...any) {
	if r.err == nil {
		r.err = &Error{r.format, field, fmt.Sprintf(format, args...)}
		r.b = nil
	}
}

// Err returns the first failure, nil if none.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or refuses the bytes left unread.
func (r *Reader) Done() error {
	if len(r.b) > 0 {
		r.Fail("end", "%d trailing bytes", len(r.b))
	}
	return r.err
}

// Bytes returns the next n bytes (aliasing the image), nil once the
// reader has failed.
func (r *Reader) Bytes(field string, n int) []byte {
	if r.err == nil && uint(n) > uint(len(r.b)) {
		r.Fail(field, "truncated: %d bytes needed, %d left", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U8 reads one byte.
func (r *Reader) U8(field string) uint8 {
	if p := r.Bytes(field, 1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads 4 bytes.
func (r *Reader) U32(field string) uint32 {
	if p := r.Bytes(field, 4); p != nil {
		return le.Uint32(p)
	}
	return 0
}

// U64 reads 8 bytes.
func (r *Reader) U64(field string) uint64 {
	if p := r.Bytes(field, 8); p != nil {
		return le.Uint64(p)
	}
	return 0
}

// F64 reads 8 bytes of IEEE-754 bits.
func (r *Reader) F64(field string) float64 { return math.Float64frombits(r.U64(field)) }

// F64s fills dst from the next 8·len(dst) bytes: one copy on a
// little-endian host, word by word elsewhere.
func (r *Reader) F64s(field string, dst []float64) {
	if p := r.Bytes(field, 8*len(dst)); p != nil {
		if nativeLE {
			copy(f64Bytes(dst), p)
			return
		}
		decodeF64sWords(dst, p)
	}
}

// Count checks a count read from the image before anything is sized by
// it: n elements of at least size bytes each must fit in the bytes left.
// It returns n as an int, or 0 once the reader has failed.
func (r *Reader) Count(field string, n uint64, size int) int {
	if r.err == nil && n > uint64(len(r.b)/size) {
		r.Fail(field, "declares %d elements of %d bytes, %d bytes left", n, size, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Trailer is a checksum stored little-endian after the body it covers.
type Trailer struct {
	name string
	size int
	sum  func([]byte) uint64
}

var (
	ecma = crc64.MakeTable(crc64.ECMA)

	// CRC64 is the 8-byte CRC-64/ECMA trailer of .sacm models and .sack
	// checkpoints.
	CRC64 = Trailer{"CRC-64", 8, func(b []byte) uint64 { return crc64.Checksum(b, ecma) }}
	// CRC32 is the 4-byte CRC-32 (IEEE) trailer of shards and manifests.
	// Hardware-accelerated on amd64 and arm64, it runs as fast as CRC-32C
	// and over ten times faster than CRC64, so it costs a shard load next
	// to nothing. CRC-32C would need crc32.MakeTable, whose code is linked
	// ahead of the solver packages and shifts their placement-sensitive
	// hot loops.
	CRC32 = Trailer{"CRC-32", 4, func(b []byte) uint64 { return uint64(crc32.ChecksumIEEE(b)) }}
)

// Seal appends the checksum of body to body.
func (t Trailer) Seal(body []byte) []byte {
	s := t.sum(body)
	for i := 0; i < t.size; i++ {
		body = append(body, byte(s>>(8*i)))
	}
	return body
}

// Open verifies data's trailer and returns the body it covers.
func (t Trailer) Open(format string, data []byte) ([]byte, error) {
	if len(data) < t.size {
		return nil, &Error{format, t.name, fmt.Sprintf("%d bytes, shorter than the trailer", len(data))}
	}
	body, tail := data[:len(data)-t.size], data[len(data)-t.size:]
	var stored uint64
	for i := t.size - 1; i >= 0; i-- {
		stored = stored<<8 | uint64(tail[i])
	}
	if got := t.sum(body); got != stored {
		return nil, &Error{format, t.name, fmt.Sprintf("checksum mismatch (stored %x, computed %x)", stored, got)}
	}
	return body, nil
}
