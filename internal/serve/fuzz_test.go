package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"saco/internal/wire"
)

// fuzzSeedModel renders a small valid binary model for the seed corpus.
func fuzzSeedModel() []byte {
	m := NewModel(KindLasso, []float64{0, 1.5, 0, -2, 0.25})
	m.TrainRows = 7
	m.Lambda = 0.3
	m.Version = 4
	buf, err := encodeModel(m)
	if err != nil {
		panic(err)
	}
	return buf
}

// overflowingNNZModel builds a file whose nnz field is 2⁶⁰+k so that
// 16·nnz wraps modulo 2⁶⁴ and the declared size matches the actual
// length — the header-arithmetic overflow that once drove make() into a
// panic instead of an error.
func overflowingNNZModel() []byte {
	const k = 3
	data := make([]byte, modelHeaderSize+16*k)
	copy(data, modelMagic)
	le := binary.LittleEndian
	le.PutUint32(data[8:], modelFormatVersion)
	le.PutUint64(data[48:], 1<<60+k)
	return wire.CRC64.Seal(data)
}

// TestReadModelOverflowingNNZRejected pins the overflow guard as a
// plain unit test (the fuzz corpus carries the same seed).
func TestReadModelOverflowingNNZRejected(t *testing.T) {
	if _, err := decodeModel(overflowingNNZModel()); err == nil {
		t.Fatal("wrapping nnz header accepted")
	}
}

// FuzzLoadModel: the .sacm decoder feeds the serving registry from a
// watched directory, so it must treat every byte stream as hostile —
// malformed input always returns an error, never a panic, and a refusal
// never allocates in proportion to a corrupt header (decodeModel bounds
// the declared nnz by the bytes left before allocating). The harness
// recomputes the trailer over the fuzzed image, so a mutation reaches
// the decoder past the checksum. The checked-in corpus under
// testdata/fuzz/FuzzLoadModel replays on plain `go test`.
func FuzzLoadModel(f *testing.F) {
	valid := fuzzSeedModel()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // truncated checksum
	f.Add(append([]byte{}, valid[8:]...)) // missing magic
	f.Add([]byte("SACOMDL1"))             // magic only
	f.Add([]byte("0.5\n-1.25\n0\n"))      // text model: refused since the text read path went
	f.Add([]byte{})
	corrupt := append([]byte{}, valid...)
	corrupt[20] ^= 0xff // flip a dims byte under the checksum
	f.Add(corrupt)
	f.Add(overflowingNNZModel())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = wire.CRC64.Seal(append([]byte(nil), data[:len(data)-8]...))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeModel(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			if !bytes.HasPrefix(data, []byte(modelMagic)) && !strings.Contains(err.Error(), "sasolve -out model.sacm") {
				t.Fatalf("non-.sacm input refused without the migration: %v", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing a %d-byte model allocated %d bytes: %v", len(data), grew, err)
			}
			return
		}
		// An accepted model must satisfy the registry's structural
		// invariants — validate() is what every load path promises.
		if verr := m.validate(); verr != nil {
			t.Fatalf("decodeModel accepted an invalid model: %v", verr)
		}
		// And it must round-trip: decode(encode(m)) == m is what
		// makes the hot-swap artifacts trustworthy.
		buf, werr := encodeModel(m)
		if werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		back, rerr := decodeModel(buf)
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if !reflect.DeepEqual(modelFields(back), modelFields(m)) {
			t.Fatalf("model did not round-trip:\n got  %+v\n want %+v", modelFields(back), modelFields(m))
		}
	})
}

// modelFields is a model's decoded content in comparable form: the
// header fields, the indices, and the values by bit pattern (NaN
// payloads included).
func modelFields(m *Model) []any {
	bits := make([]uint64, len(m.Val))
	for k, v := range m.Val {
		bits[k] = math.Float64bits(v)
	}
	return []any{m.Kind, m.Features, m.TrainRows, math.Float64bits(m.Lambda), m.Version, m.Idx, bits}
}
