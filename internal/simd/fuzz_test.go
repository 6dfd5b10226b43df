package simd_test

import (
	"encoding/binary"
	"math"
	"testing"

	"saco/internal/simd"
)

// FuzzKernels drives every kernel set with arbitrary bit patterns —
// including NaNs, infinities, denormals and -0 that byte-level fuzzing
// produces for free — and checks the cross-set contract: under every
// set each kernel matches the scalar reference loops (up to NaN payload
// identity).
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
		wantGD := refGatherDot(alpha, y, idx, x)
		wantScat := append([]float64(nil), y...)
		refScatterAxpy(alpha, wantScat, x, idx)

		if got := simd.Dot(x, y); !bitsEqNaN(got, wantDot) {
			t.Fatalf("Dot: %x vs %x", got, wantDot)
		}
		if got := simd.Nrm2Sq(alpha, x); !bitsEqNaN(got, wantN2) {
			t.Fatalf("Nrm2Sq: %x vs %x", got, wantN2)
		}
		if got := simd.GatherDot(alpha, y, idx, x); !bitsEqNaN(got, wantGD) {
			t.Fatalf("GatherDot: %x vs %x", got, wantGD)
		}
		sc := append([]float64(nil), y...)
		simd.ScatterAxpy(alpha, sc, x, idx)
		if !slicesEq(sc, wantScat, bitsEqNaN) {
			t.Fatalf("ScatterAxpy mismatch")
		}
		for _, name := range simd.Names() {
			useSet(t, name)
			ya := append([]float64(nil), y...)
			simd.Axpy(alpha, x, ya)
			if !slicesEq(ya, wantAxpy, bitsEqNaN) {
				t.Fatalf("%s Axpy mismatch", name)
			}
			xs := append([]float64(nil), x...)
			simd.Scal(alpha, xs)
			if !slicesEq(xs, wantScal, bitsEqNaN) {
				t.Fatalf("%s Scal mismatch", name)
			}
		}
	})
}
