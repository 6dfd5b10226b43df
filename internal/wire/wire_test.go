package wire

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestTrailerCheckValues pins both polynomials to their published check
// values (the CRC of "123456789"): the .sacm and .sack bytes written by
// earlier builds depend on CRC64 never changing.
func TestTrailerCheckValues(t *testing.T) {
	for _, tc := range []struct {
		tr   Trailer
		want uint64
	}{
		{CRC64, 0x995dc9bbdf1939fa},
		{CRC32, 0xcbf43926},
	} {
		if got := tc.tr.sum([]byte("123456789")); got != tc.want {
			t.Fatalf("%s check value %x, want %x", tc.tr.name, got, tc.want)
		}
	}
}

// TestTrailerRefusesEveryFlippedBit: a sealed image opens to its body,
// and flipping any one bit of it — body or trailer — is refused as an
// *Error naming the checksum.
func TestTrailerRefusesEveryFlippedBit(t *testing.T) {
	for _, tr := range []Trailer{CRC64, CRC32} {
		body := []byte("a body worth protecting")
		img := tr.Seal(append([]byte(nil), body...))
		if len(img) != len(body)+tr.size {
			t.Fatalf("%s: sealed %d bytes into %d", tr.name, len(body), len(img))
		}
		got, err := tr.Open("test", img)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: Open = %q, %v", tr.name, got, err)
		}
		for bit := 0; bit < 8*len(img); bit++ {
			bad := append([]byte(nil), img...)
			bad[bit/8] ^= 1 << (bit % 8)
			var we *Error
			if _, err := tr.Open("test", bad); !errors.As(err, &we) || we.Field != tr.name || !strings.Contains(we.Msg, "checksum") {
				t.Fatalf("%s: bit %d flipped: %v", tr.name, bit, err)
			}
		}
		if _, err := tr.Open("test", img[:tr.size-1]); err == nil {
			t.Fatalf("%s: an image shorter than its trailer opened", tr.name)
		}
	}
}

// FuzzReader decodes arbitrary bytes as one small record through every
// Reader method: a tag, a counted float vector, a counted byte string
// and a closing word. No input may panic; a refusal must be an
// *Error naming the format and a field, and must not allocate in
// proportion to a count it refused; an accepted input must re-encode
// through Writer to exactly itself.
func FuzzReader(f *testing.F) {
	var w Writer
	w.U8(7)
	w.U32(2)
	w.F64s([]float64{1.5, math.NaN()})
	w.U32(300)
	w.Bytes(make([]byte, 300))
	w.F64(-0.25)
	f.Add(w.B)
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff})                            // a count no input holds
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // one byte past an empty record
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader("record", data)
		tag := r.U8("tag")
		vec := make([]float64, r.Count("n", uint64(r.U32("n")), 8))
		r.F64s("vec", vec)
		s := r.Bytes("s", r.Count("len", uint64(r.U32("len")), 1))
		x := r.F64("x")
		err := r.Done()
		runtime.ReadMemStats(&after)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) || we.Format != "record" || we.Field == "" {
				t.Fatalf("refusal %v is not an *Error naming a field", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing %d bytes allocated %d bytes: %v", len(data), grew, err)
			}
			return
		}
		var w Writer
		w.U8(tag)
		w.U32(uint32(len(vec)))
		w.F64s(vec)
		w.U32(uint32(len(s)))
		w.Bytes(s)
		w.F64(x)
		if !bytes.Equal(w.B, data) {
			t.Fatalf("accepted record re-encodes differently:\n got  %x\n want %x", w.B, data)
		}
	})
}
