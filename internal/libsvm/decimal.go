package libsvm

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"unsafe"
)

// parseFloat is strconv.ParseFloat(s, 64).
func parseFloat(s string) (float64, error) {
	if v, ok := parseDecimal(s); ok {
		return v, nil
	}
	return strconv.ParseFloat(s, 64)
}

// splitIndex reads the index digits at the start of s up to its ':'.
// When they are 1 … 18 ASCII digits — an index that cannot overflow —
// followed by ':', it returns the colon's offset and their value with
// ok true; any other index is strconv.Atoi's to decide, from a field
// the caller has measured.
func splitIndex(s string) (colon, idx int, ok bool) {
	for ; colon < len(s) && colon <= 18; colon++ {
		d := s[colon] - '0'
		if d > 9 {
			break
		}
		idx = idx*10 + int(d)
	}
	return colon, idx, colon > 0 && colon <= 18 && colon < len(s) && s[colon] == ':'
}

// parseDecimal is scanDecimal on a whole string: ok only when the
// number is all of s.
func parseDecimal(s string) (v float64, ok bool) {
	v, n, ok := scanDecimal(s)
	return v, ok && n == len(s)
}

// scanDecimal reads the longest prefix of s of the form
// [+-]digits[.digits][(e|E)[+-]digits] with at least one mantissa digit
// (an 'e' with no digits after it is not part of it) and returns its
// length n and the float64 nearest it, ties to even — the value
// strconv.ParseFloat(s[:n], 64) returns — with ok. It declines (ok
// false) when s starts with no such number, and a number with more than
// 19 significant digits, a decimal exponent outside the table, or a
// rounding Eisel–Lemire cannot decide: a product too close to a halfway
// point, a subnormal or an overflowing result. A value it takes is
// therefore finite.
func scanDecimal(s string) (v float64, n int, ok bool) {
	b := unsafe.Slice(unsafe.StringData(s), len(s))
	i, neg := 0, false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	// Digits, then '.' and digits, all into man (a uint64 that may wrap:
	// nd counts them, and a wrapped man is never used), eight to a word
	// while eight are left (Lemire 2021, section 6). man·10⁸ + parse8(w)
	// is man = man·10 + d taken eight times, modulo 2⁶⁴ both, so a
	// wrapped man has the same bits either way.
	var man uint64
	start := i
	for i+8 <= len(b) && eightDigits(binary.LittleEndian.Uint64(b[i:])) {
		man = man*1e8 + parse8(binary.LittleEndian.Uint64(b[i:]))
		i += 8
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	nd, exp := i-start, 0 // man·10^exp is the value
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for i+8 <= len(b) && eightDigits(binary.LittleEndian.Uint64(b[i:])) {
			man = man*1e8 + parse8(binary.LittleEndian.Uint64(b[i:]))
			i += 8
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd += i - frac
		exp = frac - i
	}
	if nd == 0 {
		return 0, 0, false
	}
	if nd > 19 {
		// Leading zeros add nothing to man; the digits after them must fit.
		for j := start; j < i && (b[j] == '0' || b[j] == '.'); j++ {
			if b[j] == '0' {
				nd--
			}
		}
		if nd > 19 {
			return 0, 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		j, eneg := i+1, false
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			eneg = b[j] == '-'
			j++
		}
		if j < len(b) && b[j]-'0' <= 9 {
			e := 0
			for ; j < len(b) && b[j]-'0' <= 9; j++ {
				if e < 10000 { // far outside the table already; stop before int overflows
					e = e*10 + int(b[j]-'0')
				}
			}
			if eneg {
				e = -e
			}
			exp += e
			i = j
		}
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	}
	v, ok = eiselLemire(man, exp, neg)
	return v, i, ok
}

// eightDigits reports whether every byte of the little-endian word w is
// an ASCII digit: each byte's high nibble must be 3, and adding 6 must
// leave it 3 (no byte above '9'); a byte that carries into the next one
// has a high nibble of F and fails the first test.
func eightDigits(w uint64) bool {
	return w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 == 0x3333333333333333
}

// parse8 returns the value of the eight ASCII digits in the
// little-endian word w, first digit in the lowest byte: pairs, then
// quads, then the whole, each step one multiply.
func parse8(w uint64) uint64 {
	w -= 0x3030303030303030
	w = w*10 + w>>8 // each byte pair's low byte is now its two-digit value
	return ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
}

// eiselLemire returns man·10^exp10 correctly rounded to a float64,
// negated when neg, or ok false when it cannot certify the rounding
// (Nigel Tao's description at nigeltao.github.io/blog/2020/eisel-lemire.html
// names the steps). man must not be zero.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	p := &pow10[exp10-pow10Min]
	// Normalize man so its top bit is set; 217706·q>>16 is ⌊q·log2 10⌋
	// over the table's range, the binary exponent of p.
	clz := bits.LeadingZeros64(man)
	man <<= clz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// man·p.hi is the product's top 128 bits but for the carry from
	// man·p.lo, which can reach the bits that decide the rounding only
	// when those are all ones: then add man·p.lo's top half, and give up
	// if the carry is still undecided.
	hi, lo := bits.Mul64(man, p.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, p.lo)
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits, one more than the float's, for the rounding.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	// A truncated product whose dropped bits look exactly halfway may
	// be a tie or lie just above one.
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 0 (or wrapped below it) is subnormal, 0x7FF and up is ±Inf.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// pow10Min and pow10Max bound the q whose 10^q the table holds: every
// power a float64 and a 19-digit mantissa can need, and no more.
const pow10Min, pow10Max = -348, 347

// pow10 holds, for q in [pow10Min, pow10Max] at q − pow10Min, the 128
// leading bits of 10^q, truncated.
var pow10 = powersOfTen()

// uint128 is a 128-bit unsigned integer.
type uint128 struct{ hi, lo uint64 }

// powersOfTen computes the table exactly: 10^q shifted to 128 bits for
// q ≥ 0, and ⌊2^(127+b) / 10^−q⌋ for q < 0, where b is the bit length of
// 10^−q (a 128-bit quotient: 10^−q is no power of two).
func powersOfTen() *[pow10Max - pow10Min + 1]uint128 {
	var t [pow10Max - pow10Min + 1]uint128
	ten := big.NewInt(10)
	p := big.NewInt(1)
	x := new(big.Int)
	for q := 0; q <= pow10Max; q++ {
		if n := p.BitLen(); n > 128 {
			x.Rsh(p, uint(n-128))
		} else {
			x.Lsh(p, uint(128-n))
		}
		t[q-pow10Min] = split128(x)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for q := -1; q >= pow10Min; q-- {
		x.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		t[q-pow10Min] = split128(x.Quo(x, p))
		p.Mul(p, ten)
	}
	return &t
}

// split128 returns x, which must be below 2^128, as a uint128.
func split128(x *big.Int) uint128 {
	lo := new(big.Int).And(x, new(big.Int).SetUint64(math.MaxUint64))
	return uint128{hi: new(big.Int).Rsh(x, 64).Uint64(), lo: lo.Uint64()}
}
