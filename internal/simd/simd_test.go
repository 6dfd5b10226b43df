package simd_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"saco/internal/simd"
)

// Lengths cover 0..3× the widest vector width (8 float64s per AVX2
// iteration pair) plus a few larger sizes, so every tail path from 0
// to 7 leftovers is hit both before and after full blocks.
var testLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 100}

// Offsets shift slices off their allocation start so the asm kernels
// see unaligned bases.
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

// The oracles: the left-to-right loops whose summation order defines
// the deterministic backend matrix, with the alpha == 0 no-op contract.
// The package's kernels must reproduce them bit for bit under every
// set.

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

func refGatherDot(acc float64, val []float64, idx []int, x []float64) float64 {
	for k := range idx {
		acc += val[k] * x[idx[k]]
	}
	return acc
}

func refGatherAxpy(alpha float64, dst, src []float64, idx []int) {
	if alpha == 0 {
		return
	}
	for k := range idx {
		dst[k] += alpha * src[idx[k]]
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

// defaultSet is the set a fresh process selected, captured before any
// test calls Use.
var defaultSet = simd.Active().Name()

// useSet makes the named set the active one for the rest of the test,
// so Axpy and Scal dispatch to it.
func useSet(t *testing.T, name string) {
	t.Helper()
	prev := simd.Active().Name()
	if err := simd.Use(name); err != nil {
		t.Fatalf("Use(%q): %v", name, err)
	}
	t.Cleanup(func() {
		if err := simd.Use(prev); err != nil {
			t.Fatalf("restoring kernel set %q: %v", prev, err)
		}
	})
}

// forEachSet runs body once per available kernel set, as a subtest
// named after the set and with the set active.
func forEachSet(t *testing.T, body func(t *testing.T)) {
	for _, name := range simd.Names() {
		t.Run(name, func(t *testing.T) {
			useSet(t, name)
			body(t)
		})
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"scalar"}
	if simd.HasAVX2() {
		want = append(want, "avx2")
	}
	if got := simd.Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v (HasAVX2=%v)", got, want, simd.HasAVX2())
	}
	if _, ok := simd.Lookup("avx2"); ok != simd.HasAVX2() {
		t.Errorf("avx2 registered=%v but HasAVX2()=%v", ok, simd.HasAVX2())
	}
}

// TestDefaultSet pins which set a fresh process selects: avx2 exactly
// when the CPU and OS support it, scalar everywhere else.
func TestDefaultSet(t *testing.T) {
	want := "scalar"
	if simd.HasAVX2() {
		want = "avx2"
	}
	if defaultSet != want {
		t.Errorf("default Active() = %q, want %q (HasAVX2=%v)", defaultSet, want, simd.HasAVX2())
	}
}

func TestUse(t *testing.T) {
	orig := simd.Active().Name()
	useSet(t, orig) // restores orig on cleanup
	if err := simd.Use("no-such-set"); err == nil {
		t.Fatalf("Use of unknown set did not error")
	}
	if got := simd.Active().Name(); got != orig {
		t.Fatalf("failed Use switched the active set to %q", got)
	}
	for _, name := range simd.Names() {
		if err := simd.Use(name); err != nil {
			t.Fatalf("Use(%q): %v", name, err)
		}
		if got := simd.Active().Name(); got != name {
			t.Fatalf("Active()=%q after Use(%q)", got, name)
		}
	}
}

// TestBitwiseParity is the core property: on finite data, every kernel
// reproduces the scalar reference bit for bit under every set, across
// all tail lengths, unaligned bases and alphas.
func TestBitwiseParity(t *testing.T) {
	forEachSet(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range testLens {
			for _, off := range testOffsets {
				x := offsetCopy(randSlice(rng, n), off)
				y := offsetCopy(randSlice(rng, n), off)

				if got, want := simd.Dot(x, y), refDot(x, y); !bitsEq(got, want) {
					t.Fatalf("Dot n=%d off=%d: got %x want %x", n, off, got, want)
				}
				for _, acc := range []float64{0, 1.5, -2.25} {
					if got, want := simd.Nrm2Sq(acc, x), refNrm2Sq(acc, x); !bitsEq(got, want) {
						t.Fatalf("Nrm2Sq n=%d off=%d acc=%g: got %x want %x", n, off, acc, got, want)
					}
				}
				for _, alpha := range testAlphas {
					yk, yr := offsetCopy(y, off), offsetCopy(y, off)
					simd.Axpy(alpha, x, yk)
					refAxpy(alpha, x, yr)
					if !slicesEq(yk, yr, bitsEq) {
						t.Fatalf("Axpy n=%d off=%d alpha=%g mismatch", n, off, alpha)
					}
					xk, xr := offsetCopy(x, off), offsetCopy(x, off)
					simd.Scal(alpha, xk)
					refScal(alpha, xr)
					if !slicesEq(xk, xr, bitsEq) {
						t.Fatalf("Scal n=%d off=%d alpha=%g mismatch", n, off, alpha)
					}
				}

				if n > 0 {
					idx := randIdx(rng, n, n)
					val := randSlice(rng, n)
					if got, want := simd.GatherDot(0.5, val, idx, x), refGatherDot(0.5, val, idx, x); !bitsEq(got, want) {
						t.Fatalf("GatherDot n=%d off=%d: got %x want %x", n, off, got, want)
					}
					dk, dr := offsetCopy(y, off), offsetCopy(y, off)
					simd.GatherAxpy(0.5, dk, x, idx)
					refGatherAxpy(0.5, dr, x, idx)
					if !slicesEq(dk, dr, bitsEq) {
						t.Fatalf("GatherAxpy n=%d off=%d mismatch", n, off)
					}
					sk, sr := offsetCopy(y, off), offsetCopy(y, off)
					simd.ScatterAxpy(-1.5, sk, val, idx)
					refScatterAxpy(-1.5, sr, val, idx)
					if !slicesEq(sk, sr, bitsEq) {
						t.Fatalf("ScatterAxpy n=%d off=%d mismatch", n, off)
					}
				}
			}
		}
	})
}

// TestSpecialValues pushes NaN, ±Inf, ±0 and denormal payloads through
// every set: each must match the reference exactly up to NaN payload
// identity (see bitsEqNaN).
func TestSpecialValues(t *testing.T) {
	specials := []float64{
		math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1.5, -2.5,
	}
	// Cycle the special values through a 19-element vector so blocks and
	// tails both see them.
	mk := func(rot int) []float64 {
		s := make([]float64, 19)
		for i := range s {
			s[i] = specials[(i+rot)%len(specials)]
		}
		return s
	}
	forEachSet(t, func(t *testing.T) {
		for rot := 0; rot < len(specials); rot++ {
			x, y := mk(rot), mk(rot+3)
			got, want := simd.Dot(x, y), refDot(x, y)
			if !bitsEqNaN(got, want) {
				t.Fatalf("Dot rot=%d: got %x want %x", rot, got, want)
			}
			for _, alpha := range []float64{1, -0.5} {
				yk, yr := append([]float64(nil), y...), append([]float64(nil), y...)
				simd.Axpy(alpha, x, yk)
				refAxpy(alpha, x, yr)
				if !slicesEq(yk, yr, bitsEqNaN) {
					t.Fatalf("Axpy rot=%d alpha=%g mismatch", rot, alpha)
				}
			}
		}
	})
}

// TestAlphaZeroNoOp pins the unified alpha == 0 contract: the Axpy
// family leaves the destination untouched — exact bits, including NaN
// payloads and -0 — in every kernel set. Scal is deliberately outside
// the family.
func TestAlphaZeroNoOp(t *testing.T) {
	poison := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.25, -3,
	}
	src := []float64{math.Inf(1), math.NaN(), 2, -4, 8, 16}
	idx := []int{5, 0, 3, 1, 4, 2}
	forEachSet(t, func(t *testing.T) {
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
		check("Axpy", func(dst []float64) { simd.Axpy(0, src, dst) })
		check("GatherAxpy", func(dst []float64) { simd.GatherAxpy(0, dst, src, idx) })
		check("ScatterAxpy", func(dst []float64) { simd.ScatterAxpy(0, dst, src, idx) })

		// Scal(0, x) really zeroes (and 0·Inf, 0·NaN are NaN).
		x := append([]float64(nil), poison...)
		simd.Scal(0, x)
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
	})
}

// TestScatterAxpyDuplicates pins accumulate-in-index-order semantics
// for repeated scatter indices.
func TestScatterAxpyDuplicates(t *testing.T) {
	idx := []int{2, 2, 2, 0, 2, 1, 0, 2, 2}
	v := []float64{1e16, 1, -1e16, 3, 2, 7, -3, 0.5, 0.25}
	got := make([]float64, 3)
	want := make([]float64, 3)
	simd.ScatterAxpy(1.5, got, v, idx)
	refScatterAxpy(1.5, want, v, idx)
	if !slicesEq(got, want, bitsEq) {
		t.Errorf("duplicate-index scatter diverged: got %v want %v", got, want)
	}
}

func TestMergeDot(t *testing.T) {
	cases := []struct {
		ia   []int
		va   []float64
		ib   []int
		vb   []float64
		want float64
	}{
		{nil, nil, nil, nil, 1.75},
		{[]int{0, 2, 5}, []float64{1, 2, 3}, []int{1, 3, 6}, []float64{4, 5, 6}, 1.75},
		{[]int{0, 2, 5}, []float64{1, 2, 3}, []int{0, 2, 5}, []float64{4, 5, 6}, 1.75 + 4 + 10 + 18},
		{[]int{1, 4, 7, 9}, []float64{1, -2, 3, -4}, []int{4, 9}, []float64{0.5, 0.25}, 1.75 - 1 - 1},
	}
	for ci, c := range cases {
		if got := simd.MergeDot(1.75, c.ia, c.va, c.ib, c.vb); !bitsEq(got, c.want) {
			t.Errorf("case %d: MergeDot got %v want %v", ci, got, c.want)
		}
		// The method the repo benchmark times is the same function.
		if got := simd.Active().MergeDot(1.75, c.ia, c.va, c.ib, c.vb); !bitsEq(got, c.want) {
			t.Errorf("case %d: Kernels.MergeDot got %v want %v", ci, got, c.want)
		}
	}
}

func TestSpMVRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, cols = 17, 29
	rowPtr := make([]int, rows+1)
	var colIdx []int
	var val []float64
	for i := 0; i < rows; i++ {
		nnz := rng.Intn(9) // rows with 0..8 entries, including empties
		cs := rng.Perm(cols)[:nnz]
		sort.Ints(cs)
		for _, c := range cs {
			colIdx = append(colIdx, c)
			val = append(val, rng.NormFloat64())
		}
		rowPtr[i+1] = len(colIdx)
	}
	x := randSlice(rng, cols)
	want := make([]float64, rows)
	for i := range want {
		want[i] = refGatherDot(0, val[rowPtr[i]:rowPtr[i+1]], colIdx[rowPtr[i]:rowPtr[i+1]], x)
	}
	got := make([]float64, rows)
	// Split the row range to exercise lo > 0.
	simd.SpMVRows(rowPtr, colIdx, val, x, got, 0, 5)
	simd.SpMVRows(rowPtr, colIdx, val, x, got, 5, rows)
	if !slicesEq(got, want, bitsEq) {
		t.Errorf("SpMVRows diverged: got %v want %v", got, want)
	}
}

func TestLengthGuards(t *testing.T) {
	mustPanic := func(op string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with short companion slice did not panic", op)
			}
		}()
		f()
	}
	x := []float64{1, 2, 3}
	short := []float64{1}
	mustPanic("Dot", func() { simd.Dot(x, short) })
	mustPanic("Axpy", func() { simd.Axpy(1, x, short) })
	mustPanic("GatherDot", func() { simd.GatherDot(0, short, []int{0, 1, 2}, x) })
	mustPanic("ScatterAxpy", func() { simd.ScatterAxpy(1, x, short, []int{0, 1, 2}) })
	mustPanic("GatherAxpy", func() { simd.GatherAxpy(1, short, x, []int{0, 1, 2}) })
	mustPanic("MergeDot", func() { simd.MergeDot(0, []int{0, 1, 2}, short, nil, nil) })
}
