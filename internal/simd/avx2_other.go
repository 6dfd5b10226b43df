//go:build !amd64

package simd

// No AVX2 on this architecture; scalar is the only set.
var avx2Set *Kernels
