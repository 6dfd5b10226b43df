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

// TestF64sMatchesWordLoop holds Writer.F64s and Reader.F64s to the
// word-by-word codec — the big-endian path, and what the one-copy path
// replaced on a little-endian host — byte for byte: lengths 0–17 and 8 512 (the
// dist-lasso-sa payload), NaN payloads, ±0, subnormals and ±Inf,
// appended after 0–7 bytes so the payload starts at every alignment,
// and decoded back through a Reader from the same odd offsets.
func TestF64sMatchesWordLoop(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_cafe),
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, math.Inf(1), math.Inf(-1), math.MaxFloat64,
	}
	lengths := []int{8512}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) * -1.25
			if i%3 == 0 {
				v[i] = specials[(i/3)%len(specials)]
			}
		}
		for pre := 0; pre < 8; pre++ {
			prefix := bytes.Repeat([]byte{0xa5}, pre)
			w := Writer{B: append([]byte(nil), prefix...)}
			w.F64s(v)
			want := appendF64sWords(append([]byte(nil), prefix...), v)
			if !bytes.Equal(w.B, want) {
				t.Fatalf("n=%d after %d bytes: F64s wrote %x, the word loop %x", n, pre, w.B, want)
			}

			r := NewReader("test", w.B)
			r.Bytes("prefix", pre)
			got := make([]float64, n)
			r.F64s("payload", got)
			if err := r.Done(); err != nil {
				t.Fatalf("n=%d after %d bytes: %v", n, pre, err)
			}
			oracle := make([]float64, n)
			decodeF64sWords(oracle, want[pre:])
			for i := range v {
				if g, o := math.Float64bits(got[i]), math.Float64bits(oracle[i]); g != o || g != math.Float64bits(v[i]) {
					t.Fatalf("n=%d after %d bytes: word %d read %#x, word loop %#x, written %#x", n, pre, i, g, o, math.Float64bits(v[i]))
				}
			}
		}
	}
	// A short image is refused without touching dst.
	r := NewReader("test", make([]byte, 15))
	dst := []float64{1, 2}
	r.F64s("payload", dst)
	if r.Err() == nil || dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("a 15-byte image read as two words: %v, dst %v", r.Err(), dst)
	}
}
