package libsvm

import (
	"bytes"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"saco/internal/datagen"
	"saco/internal/rng"
)

// checkDecimal holds parseDecimal to its reference: on s it declines,
// or returns strconv.ParseFloat's bits where strconv returns no error.
// It reports whether the scanner took s.
func checkDecimal(t *testing.T, s string) bool {
	t.Helper()
	v, ok := parseDecimal(s)
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%q: scanner took %v, strconv refuses it: %v", s, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: scanner %v (%#016x), strconv %v (%#016x)", s, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true
}

// decimalGrammar is scanDecimal's grammar; Longest makes a match the
// longest prefix of s in it.
var decimalGrammar = func() *regexp.Regexp {
	re := regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// checkScan holds scanDecimal to its contract on s: when it takes a
// prefix, that prefix is the longest one of s in the grammar, and its
// value is strconv.ParseFloat's bits for the prefix — and parseDecimal's.
func checkScan(t *testing.T, s string) {
	t.Helper()
	v, n, ok := scanDecimal(s)
	if !ok {
		return
	}
	if loc := decimalGrammar.FindStringIndex(s); loc == nil || loc[1] != n {
		t.Fatalf("%q: scanner took %d bytes, the grammar's longest prefix is %v", s, n, loc)
	}
	want, err := strconv.ParseFloat(s[:n], 64)
	if err != nil {
		t.Fatalf("%q: scanner took %q as %v, strconv refuses it: %v", s, s[:n], v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: scanner read %q as %v (%#016x), strconv %v (%#016x)", s, s[:n], v, math.Float64bits(v), want, math.Float64bits(want))
	}
	if w, ok := parseDecimal(s[:n]); !ok || math.Float64bits(w) != math.Float64bits(v) {
		t.Fatalf("%q: scanDecimal took %q as %v, parseDecimal gives (%v, %v)", s, s[:n], v, w, ok)
	}
}

// decimalSeeds are the scanner's boundary strings; they seed FuzzDecimal,
// which plain go test runs as unit tests.
var decimalSeeds = []string{
	"9007199254740993",        // 2^53 + 1: exactly halfway
	"2.2250738585072011e-308", // just below the smallest normal
	"2.2250738585072012e-308", // the smallest normal
	"4.9406564584124654e-324", // the smallest subnormal
	"1e23", "8.41e21",         // classic rounding traps
	"1234567890123456789", "12345678901234567890", // 19 and 20 digits
	"98765432109876543210", // 20 digits that overflow a uint64
	"0.000000000000000000000000000001", "00000000000000000000001.5",
	"1.", ".5", "-0", "+0", "-0.0e-999", "0e99999",
	"1e", "1e+", "e5", ".", "-", "+.5", "1.2.3", "1e5e5", "1ee5", "--1",
	"1_0", "0x1p-2", "0X10", "Infinity", "inf", "nan", "-NaN",
	"1e-400", "1e310", "1.7976931348623157e308", "1.7976931348623159e308",
	"1e-348", "1e347", "1e-349", "1e348",
	"0.1", "-1", "1", "+1.5e2", "1E5", "1e-05", "1e+21",
	"1e5x", "1.5 2:3", "1e+ 2", "1e-x", "5.e3", "0.123456789012345678e5 ", "12345678:9",
	"123456781234567812345678", "1234567.12345678e-3\u0085",
}

// TestDecimalMatchesStrconv: bitwise agreement on shapes around every
// decision the scanner makes — random bit patterns, scaled normal draws,
// every 'e' precision, 'f' and 'g' forms, last digits nudged toward the
// halfway points between floats, and raw digit strings across the
// table's whole exponent range.
func TestDecimalMatchesStrconv(t *testing.T) {
	r := rng.New(7)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var taken, tried int
	check := func(s string) {
		tried++
		if checkDecimal(t, s) {
			taken++
		}
	}
	for range n {
		var x float64
		switch r.Intn(3) {
		case 0:
			x = math.Float64frombits(r.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		case 1:
			x = r.NormFloat64() * math.Pow(10, float64(r.Intn(81)-40))
		default:
			x = r.NormFloat64()
		}
		g := strconv.FormatFloat(x, 'g', -1, 64)
		check(g)
		check(strconv.FormatFloat(x, 'e', r.Intn(21), 64))
		check(strconv.FormatFloat(x, 'g', 1+r.Intn(19), 64))
		if math.Abs(x) < 1e20 && math.Abs(x) > 1e-20 {
			check(strconv.FormatFloat(x, 'f', r.Intn(25), 64))
		}
		// Nudge the last mantissa digit of a 17-digit form both ways.
		e := strconv.FormatFloat(x, 'e', 16, 64)
		k := strings.IndexByte(e, 'e') - 1
		if d := e[k]; d > '0' {
			check(e[:k] + string(d-1) + e[k+1:])
		}
		if d := e[k]; d < '9' {
			check(e[:k] + string(d+1) + e[k+1:])
		}
		// Integers, and the halfway points between the floats beside them:
		// exact products, where only the dropped bits decide the rounding.
		u := r.Uint64() >> r.Intn(12)
		check(strconv.FormatUint(u, 10))
		if f := float64(u); f >= 1<<53 && f < 1<<63 {
			up := math.Nextafter(f, math.Inf(1))
			check(strconv.FormatUint(uint64(f)+(uint64(up)-uint64(f))/2, 10))
			check(strconv.FormatUint(uint64(f)+(uint64(up)-uint64(f))/2+uint64(r.Intn(3))-1, 10))
		}
		// Raw digits with an exponent anywhere in (and just beyond) the table.
		var b []byte
		for range 1 + r.Intn(20) {
			b = append(b, byte('0'+r.Intn(10)))
		}
		check(string(b) + "e" + strconv.Itoa(r.Intn(720)-370))
	}
	if taken < tried/2 {
		t.Fatalf("scanner took %d of %d fields", taken, tried)
	}
}

// inPlace reports whether ParseBytes finishes the feature field at the
// start of s — index:value, then the byte that ends it — where it lies:
// splitIndex and scanDecimal reach the white space (or the end of s)
// with no second pass.
func inPlace(s string) bool {
	colon, _, ok := splitIndex(s)
	if !ok {
		return false
	}
	_, n, ok := scanDecimal(s[colon+1:])
	end := colon + 1 + n
	return ok && (end == len(s) || spaceAt([]byte(s), end) > 0)
}

// TestDecimalTakesBenchmarkFields guards the gain itself: the scanner
// must take, not hand to strconv, every value of the serving
// benchmark's shape (FormatFloat(NormFloat64(), 'g', -1, 64), 48 per
// row, behind an index below 8 192) and every number Write prints for
// the benchmark's regression and classification data, and every such
// feature field must be finished in place. A silent fallback would keep
// all the correctness tests green and lose the speed.
func TestDecimalTakesBenchmarkFields(t *testing.T) {
	r := rng.New(1)
	for range 4096 * 48 / 8 {
		s := strconv.FormatFloat(r.NormFloat64(), 'g', -1, 64)
		if !checkDecimal(t, s) {
			t.Fatalf("%q went to strconv", s)
		}
		if f := strconv.Itoa(1+r.Intn(8192)) + ":" + s + " "; !inPlace(f) {
			t.Fatalf("%q was not finished in place", f)
		}
	}
	for _, d := range []*datagen.Dataset{
		datagen.Regression("reg", 1, 400, 1000, 0.05, 50, 0.1),
		datagen.Classification("cls", 1, 400, 1000, 0.05, 0.1),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, d.CSR, d.B); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for i := 0; i < len(text); {
			end := i + strings.IndexAny(text[i:], " \n")
			s := text[i:end]
			if c := strings.IndexByte(s, ':'); c >= 0 {
				if !inPlace(text[i:]) {
					t.Fatalf("%s: %q, printed by Write, was not finished in place", d.Name, s)
				}
				s = s[c+1:]
			}
			if !checkDecimal(t, s) {
				t.Fatalf("%s: %q, printed by Write, went to strconv", d.Name, s)
			}
			i = end + 1
		}
	}
}

// TestEightDigitsMatchesBytes holds the word step to the per-byte loop
// it replaces: eightDigits is "every byte is an ASCII digit", and
// parse8 the digits' value, on seeded words of mostly digits and on
// every single-byte perturbation of some of them.
func TestEightDigitsMatchesBytes(t *testing.T) {
	check := func(w uint64) {
		digits, val := true, uint64(0)
		for k := range 8 {
			d := byte(w>>(8*k)) - '0'
			digits = digits && d <= 9
			val = val*10 + uint64(d)
		}
		if eightDigits(w) != digits {
			t.Fatalf("%#016x: eightDigits %v, bytes say %v", w, !digits, digits)
		}
		if digits && parse8(w) != val {
			t.Fatalf("%#016x: parse8 %d, bytes say %d", w, parse8(w), val)
		}
	}
	r := rng.New(8)
	words, perturbed := 1_000_000, 4096
	if testing.Short() {
		words, perturbed = 100_000, 256
	}
	for n := range words {
		var w uint64
		for k := range 8 {
			b := byte('0' + r.Intn(10))
			if r.Intn(16) == 0 {
				b = byte(r.Uint64())
			}
			w |= uint64(b) << (8 * k)
		}
		check(w)
		if n < perturbed {
			for k := range 8 {
				for b := range 256 {
					check(w&^(0xFF<<(8*k)) | uint64(b)<<(8*k))
				}
			}
		}
	}
}

// TestPowersOfTenPinned pins spot entries of the computed table to the
// published constants (Lemire 2021; Go's strconv table).
func TestPowersOfTenPinned(t *testing.T) {
	for _, c := range []struct {
		q    int
		want uint128
	}{
		{0, uint128{0x8000000000000000, 0}},
		{-1, uint128{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{1, uint128{0xA000000000000000, 0}},
		{pow10Min, uint128{0xFA8FD5A0081C0288, 0x1732C869CD60E453}},
		{pow10Max, uint128{0xD13EB46469447567, 0x4B7195F2D2D1A9FB}},
	} {
		if got := pow10[c.q-pow10Min]; got != c.want {
			t.Errorf("10^%d: %#016x %#016x, want %#016x %#016x", c.q, got.hi, got.lo, c.want.hi, c.want.lo)
		}
	}
}

// FuzzDecimal: on any string the scanner declines, or returns the bits
// strconv.ParseFloat returns, and only where strconv returns no error.
func FuzzDecimal(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkDecimal(t, s)
		checkScan(t, s)
	})
}

// BenchmarkDecimal converts the benchmark's value shape.
func BenchmarkDecimal(b *testing.B) {
	r := rng.New(1)
	fields := make([]string, 4096)
	for i := range fields {
		fields[i] = strconv.FormatFloat(r.NormFloat64(), 'g', -1, 64)
	}
	b.Run("scanner", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok := parseDecimal(fields[i%len(fields)]); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, err := strconv.ParseFloat(fields[i%len(fields)], 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
