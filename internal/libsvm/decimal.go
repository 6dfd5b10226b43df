package libsvm

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// parseFloat is strconv.ParseFloat(s, 64).
func parseFloat(s string) (float64, error) {
	if v, ok := parseDecimal(s); ok {
		return v, nil
	}
	return strconv.ParseFloat(s, 64)
}

// splitIndex returns the offset of f's first ':', −1 if there is none.
// When the bytes before it are 1 … 18 ASCII digits — an index that
// cannot overflow — it also returns their value with digits true, read
// in the same pass; any other index is strconv.Atoi's to decide.
func splitIndex(f string) (colon, idx int, digits bool) {
	for ; colon < len(f) && colon <= 18; colon++ {
		d := f[colon] - '0'
		if d > 9 {
			break
		}
		idx = idx*10 + int(d)
	}
	if colon > 0 && colon <= 18 && colon < len(f) && f[colon] == ':' {
		return colon, idx, true
	}
	return strings.IndexByte(f, ':'), 0, false
}

// parseDecimal returns the float64 nearest the decimal number s, ties to
// even — the value strconv.ParseFloat(s, 64) returns — with ok, for s of
// the form [+-]digits[.digits][(e|E)[+-]digits] with at least one
// mantissa digit. It declines (ok false) anything else — hex,
// underscores, inf, nan, a malformed field — and s with more than 19
// significant digits, a decimal exponent outside the table, or a
// rounding Eisel–Lemire cannot decide: a product too close to a
// halfway point, a subnormal or an overflowing result.
func parseDecimal(s string) (v float64, ok bool) {
	i, neg := 0, false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	// Digits, then '.' and digits, all into man (a uint64 that may wrap:
	// nd counts them, and a wrapped man is never used).
	var man uint64
	start := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		man = man*10 + uint64(s[i]-'0')
	}
	nd, exp := i-start, 0 // man·10^exp is the value
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			man = man*10 + uint64(s[i]-'0')
		}
		nd += i - frac
		exp = frac - i
	}
	if nd == 0 {
		return 0, false
	}
	if nd > 19 {
		// Leading zeros add nothing to man; the digits after them must fit.
		for j := start; j < i && (s[j] == '0' || s[j] == '.'); j++ {
			if s[j] == '0' {
				nd--
			}
		}
		if nd > 19 {
			return 0, false
		}
	}
	if i < len(s) && s[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			eneg = s[i] == '-'
			i++
		}
		if i == len(s) {
			return 0, false
		}
		e := 0
		for ; i < len(s); i++ {
			d := s[i] - '0'
			if d > 9 {
				return 0, false
			}
			if e < 10000 { // far outside the table already; stop before int overflows
				e = e*10 + int(d)
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(s) {
		return 0, false
	}
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	return eiselLemire(man, exp, neg)
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
