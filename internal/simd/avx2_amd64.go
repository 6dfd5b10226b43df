//go:build amd64

package simd

// The avx2 set: hand-written AVX2 assembly for the elementwise
// contiguous kernels (axpy, scal). These vectorize bitwise-safely: each
// element undergoes exactly one multiply and one add (VMULPD then
// VADDPD — never VFMADD, whose single rounding would differ from the
// scalar mul-then-add), and lanes never interact, so the result is
// identical to the scalar loop bit for bit. Reduction kernels are
// bound by their loop-carried add chain and cannot be vectorized
// without reassociating, so they are not part of any set: the scalar
// loops in scalar.go are their only implementation.
//
// The gather/scatter/merge kernels stay in Go on purpose: assembly
// loops cannot bounds-check idx against x/dst, and the indexed loads
// dominate their runtime anyway.

// axpyAVX2 computes y[i] += alpha·x[i] over len(x) elements. Caller
// guarantees len(y) >= len(x) and alpha != 0.
func axpyAVX2(alpha float64, x, y []float64)

// scalAVX2 computes x[i] *= alpha in place.
func scalAVX2(alpha float64, x []float64)

func newAVX2Set() *Kernels {
	if !hasAVX2 {
		return nil
	}
	return &Kernels{name: "avx2", axpy: axpyAVX2, scal: scalAVX2}
}

var avx2Set = newAVX2Set()
