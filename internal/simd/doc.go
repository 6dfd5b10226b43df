// Package simd holds the repository's hot floating-point primitives:
// the dense dot/axpy pair, the squared norm, the gather-dot and
// scatter-axpy at the heart of every CSR/CSC kernel, the sorted-merge
// dot of two sparse vectors (sparse-request scoring; the pairwise
// definition of a Gram entry, kept as its test oracle), and a fused
// gather-multiply-accumulate SpMV row loop.
//
// The reductions and the indexed kernels (Dot, Nrm2Sq, GatherDot,
// GatherAxpy, ScatterAxpy, MergeDot, SpMVRows) have one implementation
// each: the original pure-Go loops in scalar.go, whose summation order
// defines the deterministic backend matrix. A lane-parallel or
// multi-accumulator sum would reassociate, so none exists.
//
// The two contiguous elementwise primitives, Axpy and Scal, exist in
// two *kernel sets*:
//
//   - scalar: the pure-Go loops. The bitwise reference.
//   - avx2 (amd64 with AVX2 only): Go-assembly vector kernels that
//     perform one multiply and one add per element and therefore round
//     exactly like the scalar loop (no FMA is used).
//
// Both sets are bitwise identical, so the choice is not a user setting:
// the active set is fixed at init from CPUID (avx2 on capable amd64
// hardware, scalar everywhere else). Tests and the parity harness
// switch sets with Use to prove the identity.
//
// # The alpha == 0 contract
//
// Every kernel in the Axpy family — Axpy, ScatterAxpy, GatherAxpy, and
// the sparse row/column kernels built on them — treats alpha == 0 as a
// no-op: the destination is returned untouched, bit for bit. The
// alternative (computing y[i] += 0*x[i]) would normalize -0 to +0 and
// turn Inf/NaN payloads in x into NaNs in y, and historically the
// codebase disagreed with itself kernel by kernel. The no-op semantic
// is enforced centrally in this package and asserted for every variant
// (plain, atomic, dense, sparse) by the kernel property tests. Scal is
// not in the family: Scal(0, x) really does zero x (modulo 0·NaN = NaN,
// 0·Inf = NaN), matching the BLAS convention.
package simd
