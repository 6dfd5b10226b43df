package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"reflect"
	"strings"
	"testing"
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
	data := make([]byte, modelHeaderSize+16*k+8)
	copy(data, modelMagic[:])
	le := binary.LittleEndian
	le.PutUint32(data[8:], modelFormatVersion)
	le.PutUint64(data[48:], 1<<60+k)
	le.PutUint64(data[len(data)-8:], crc64.Checksum(data[:len(data)-8], crcTable))
	return data
}

// TestReadModelOverflowingNNZRejected pins the overflow guard as a
// plain unit test (the fuzz corpus carries the same seed).
func TestReadModelOverflowingNNZRejected(t *testing.T) {
	if _, _, err := decodeModel(overflowingNNZModel(), false); err == nil {
		t.Fatal("wrapping nnz header accepted")
	}
}

// FuzzLoadModel: the .sacm decoder feeds the serving registry from a
// watched directory, so it must treat every byte stream as hostile —
// malformed input always returns an error, never a panic, and never an
// allocation driven by a corrupt header (decodeModel validates the
// declared nnz against the actual file size before allocating). The
// copy and the alias (mmap) decodes are one function with a switch; the
// fuzz holds them to one verdict and, on success, one model. The
// checked-in corpus under testdata/fuzz/FuzzLoadModel replays on plain
// `go test`.
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
		m, _, err := decodeModel(data, false)
		// A fresh allocation is 8-aligned, so a valid image really does
		// take the aliasing branch on a little-endian host.
		am, _, aerr := decodeModel(append([]byte(nil), data...), true)
		if (err == nil) != (aerr == nil) {
			t.Fatalf("copy decode says %v, alias decode says %v", err, aerr)
		}
		if err != nil {
			if !bytes.HasPrefix(data, modelMagic[:]) && !strings.Contains(err.Error(), "sasolve -out model.sacm") {
				t.Fatalf("non-.sacm input refused without the migration: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(modelFields(m), modelFields(am)) {
			t.Fatalf("copy and alias decodes differ:\n copy  %+v\n alias %+v", modelFields(m), modelFields(am))
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
		back, _, rerr := decodeModel(buf, false)
		if rerr != nil {
			t.Fatalf("re-decode failed: %v", rerr)
		}
		if back.Features != m.Features || back.NNZ() != m.NNZ() || back.Kind != m.Kind {
			t.Fatal("model did not round-trip")
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
