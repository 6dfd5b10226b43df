package mat_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"saco/internal/mat"
)

// The BLAS-1 loops (Dot, Nrm2Sq, Axpy, Scal, ScatterAxpy) against their
// reference loops: the left-to-right folds whose summation order
// defines the deterministic backend matrix, with the alpha == 0 no-op
// contract. A kernel that reassociates, fuses or skips differently
// fails here bit for bit.

// Lengths run from empty through odd and power-of-two sizes to 100.
var testLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 100}

// Offsets shift slices off their allocation start so the kernels see
// unaligned bases.
var testOffsets = []int{0, 1, 3}

var testAlphas = []float64{1, -1, 0.5, 2.25, 1e-300, -3.75}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func randIdx(rng *rand.Rand, n, bound int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(bound)
	}
	return idx
}

// offsetCopy returns a copy of s whose backing array starts off
// elements earlier, so &out[0] is not allocation-aligned.
func offsetCopy(s []float64, off int) []float64 {
	buf := make([]float64, len(s)+off)
	out := buf[off:]
	copy(out, s)
	return out
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bitsEqNaN is bitsEq except that any NaN matches any NaN. NaN payload
// propagation through a+b depends on hardware operand order and is not
// part of the determinism contract; everything else — including the
// sign of zero — is compared exactly.
func bitsEqNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return bitsEq(a, b)
}

func slicesEq(a, b []float64, eq func(x, y float64) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func refDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func refNrm2Sq(acc float64, x []float64) float64 {
	for i := range x {
		acc += x[i] * x[i]
	}
	return acc
}

func refAxpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func refScal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func refScatterAxpy(alpha float64, dst, v []float64, idx []int) {
	if alpha == 0 {
		return
	}
	for k := range idx {
		dst[idx[k]] += alpha * v[k]
	}
}

// TestBitwiseParity is the core property: on finite data, every loop
// reproduces the reference bit for bit, across lengths, unaligned bases
// and alphas.
func TestBitwiseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range testLens {
		for _, off := range testOffsets {
			x := offsetCopy(randSlice(rng, n), off)
			y := offsetCopy(randSlice(rng, n), off)

			if got, want := mat.Dot(x, y), refDot(x, y); !bitsEq(got, want) {
				t.Fatalf("Dot n=%d off=%d: got %x want %x", n, off, got, want)
			}
			for _, acc := range []float64{0, 1.5, -2.25} {
				if got, want := mat.Nrm2Sq(acc, x), refNrm2Sq(acc, x); !bitsEq(got, want) {
					t.Fatalf("Nrm2Sq n=%d off=%d acc=%g: got %x want %x", n, off, acc, got, want)
				}
			}
			for _, alpha := range testAlphas {
				yk, yr := offsetCopy(y, off), offsetCopy(y, off)
				mat.Axpy(alpha, x, yk)
				refAxpy(alpha, x, yr)
				if !slicesEq(yk, yr, bitsEq) {
					t.Fatalf("Axpy n=%d off=%d alpha=%g mismatch", n, off, alpha)
				}
				xk, xr := offsetCopy(x, off), offsetCopy(x, off)
				mat.Scal(alpha, xk)
				refScal(alpha, xr)
				if !slicesEq(xk, xr, bitsEq) {
					t.Fatalf("Scal n=%d off=%d alpha=%g mismatch", n, off, alpha)
				}
			}

			if n > 0 {
				idx := randIdx(rng, n, n)
				val := randSlice(rng, n)
				sk, sr := offsetCopy(y, off), offsetCopy(y, off)
				mat.ScatterAxpy(-1.5, sk, val, idx)
				refScatterAxpy(-1.5, sr, val, idx)
				if !slicesEq(sk, sr, bitsEq) {
					t.Fatalf("ScatterAxpy n=%d off=%d mismatch", n, off)
				}
			}
		}
	}
}

// TestSpecialValues pushes NaN, ±Inf, ±0 and denormal payloads through
// the loops: each must match the reference exactly up to NaN payload
// identity (see bitsEqNaN).
func TestSpecialValues(t *testing.T) {
	specials := []float64{
		math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1.5, -2.5,
	}
	// Cycle the special values through a 19-element vector so every
	// position sees each of them.
	mk := func(rot int) []float64 {
		s := make([]float64, 19)
		for i := range s {
			s[i] = specials[(i+rot)%len(specials)]
		}
		return s
	}
	for rot := 0; rot < len(specials); rot++ {
		x, y := mk(rot), mk(rot+3)
		got, want := mat.Dot(x, y), refDot(x, y)
		if !bitsEqNaN(got, want) {
			t.Fatalf("Dot rot=%d: got %x want %x", rot, got, want)
		}
		for _, alpha := range []float64{1, -0.5} {
			yk, yr := append([]float64(nil), y...), append([]float64(nil), y...)
			mat.Axpy(alpha, x, yk)
			refAxpy(alpha, x, yr)
			if !slicesEq(yk, yr, bitsEqNaN) {
				t.Fatalf("Axpy rot=%d alpha=%g mismatch", rot, alpha)
			}
		}
	}
}

// TestAlphaZeroNoOp pins the alpha == 0 contract (see the package doc):
// the Axpy family leaves the destination untouched — exact bits,
// including NaN payloads and -0. Scal is deliberately outside the
// family.
func TestAlphaZeroNoOp(t *testing.T) {
	poison := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.25, -3,
	}
	src := []float64{math.Inf(1), math.NaN(), 2, -4, 8, 16}
	idx := []int{5, 0, 3, 1, 4, 2}
	check := func(op string, f func(dst []float64)) {
		dst := append([]float64(nil), poison...)
		f(dst)
		for i := range dst {
			if !bitsEq(dst[i], poison[i]) {
				t.Fatalf("%s(alpha=0) modified dst[%d]: %x -> %x",
					op, i, math.Float64bits(poison[i]), math.Float64bits(dst[i]))
			}
		}
	}
	check("Axpy", func(dst []float64) { mat.Axpy(0, src, dst) })
	check("ScatterAxpy", func(dst []float64) { mat.ScatterAxpy(0, dst, src, idx) })

	// Scal(0, x) really zeroes (and 0·Inf, 0·NaN are NaN).
	x := append([]float64(nil), poison...)
	mat.Scal(0, x)
	for i, v := range x {
		orig := poison[i]
		if math.IsNaN(orig) || math.IsInf(orig, 0) {
			if !math.IsNaN(v) {
				t.Fatalf("Scal(0) of %g gave %g, want NaN", orig, v)
			}
		} else if v != 0 {
			t.Fatalf("Scal(0) left x[%d]=%g", i, v)
		}
	}
}

// TestScatterAxpyDuplicates pins accumulate-in-index-order semantics
// for repeated scatter indices.
func TestScatterAxpyDuplicates(t *testing.T) {
	idx := []int{2, 2, 2, 0, 2, 1, 0, 2, 2}
	v := []float64{1e16, 1, -1e16, 3, 2, 7, -3, 0.5, 0.25}
	got := make([]float64, 3)
	want := make([]float64, 3)
	mat.ScatterAxpy(1.5, got, v, idx)
	refScatterAxpy(1.5, want, v, idx)
	if !slicesEq(got, want, bitsEq) {
		t.Errorf("duplicate-index scatter diverged: got %v want %v", got, want)
	}
}

// TestLengthGuards: a companion slice shorter or longer than the one it
// pairs with panics before anything is written.
func TestLengthGuards(t *testing.T) {
	x := []float64{1, 2, 3}
	for _, other := range [][]float64{{1}, {1, 2, 3, 4}} {
		y := append([]float64(nil), other...)
		for _, c := range []struct {
			op string
			f  func()
		}{
			{"Dot", func() { mat.Dot(x, y) }},
			{"Axpy", func() { mat.Axpy(1, x, y) }},
			{"ScatterAxpy", func() { mat.ScatterAxpy(1, x, y, []int{0, 1, 2}) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with len %d companion did not panic", c.op, len(y))
					}
				}()
				c.f()
			}()
			if !slicesEq(y, other, bitsEq) || !slicesEq(x, []float64{1, 2, 3}, bitsEq) {
				t.Errorf("%s wrote before panicking", c.op)
			}
		}
	}
}

// FuzzKernels drives the loops with arbitrary bit patterns — including
// NaNs, infinities, denormals and -0 that byte-level fuzzing produces
// for free — and checks that each matches its reference loop (up to NaN
// payload identity).
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1.5)
	big := make([]byte, 61*8)
	for i := range big {
		big[i] = byte(i * 37)
	}
	f.Add(big, -0.25)
	f.Fuzz(func(t *testing.T, data []byte, alpha float64) {
		n := len(data) / 16
		if n > 256 {
			n = 256
		}
		x := make([]float64, n)
		y := make([]float64, n)
		idx := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			idx[i] = int(data[i*16]) % n
		}
		wantDot := refDot(x, y)
		wantN2 := refNrm2Sq(alpha, x)
		wantAxpy := append([]float64(nil), y...)
		refAxpy(alpha, x, wantAxpy)
		wantScal := append([]float64(nil), x...)
		refScal(alpha, wantScal)
		wantScat := append([]float64(nil), y...)
		refScatterAxpy(alpha, wantScat, x, idx)

		if got := mat.Dot(x, y); !bitsEqNaN(got, wantDot) {
			t.Fatalf("Dot: %x vs %x", got, wantDot)
		}
		if got := mat.Nrm2Sq(alpha, x); !bitsEqNaN(got, wantN2) {
			t.Fatalf("Nrm2Sq: %x vs %x", got, wantN2)
		}
		sc := append([]float64(nil), y...)
		mat.ScatterAxpy(alpha, sc, x, idx)
		if !slicesEq(sc, wantScat, bitsEqNaN) {
			t.Fatalf("ScatterAxpy mismatch")
		}
		ya := append([]float64(nil), y...)
		mat.Axpy(alpha, x, ya)
		if !slicesEq(ya, wantAxpy, bitsEqNaN) {
			t.Fatalf("Axpy mismatch")
		}
		xs := append([]float64(nil), x...)
		mat.Scal(alpha, xs)
		if !slicesEq(xs, wantScal, bitsEqNaN) {
			t.Fatalf("Scal mismatch")
		}
	})
}
