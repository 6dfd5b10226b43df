// Package simd is the kernel-dispatch layer for the repository's hot
// floating-point primitives: the dense dot/axpy pair, the squared norm,
// the gather-dot and scatter-axpy at the heart of every CSR/CSC kernel,
// the sorted-merge dot of two sparse vectors (sparse-request scoring;
// the pairwise definition of a Gram entry, kept as its test oracle), and
// a fused gather-multiply-accumulate SpMV row loop.
//
// Every primitive exists in several complete *kernel sets*:
//
//   - scalar: the original pure-Go loops, unchanged. This set is the
//     bitwise reference every other set is tested against.
//   - unrolled: 4× unrolled single-accumulator Go. The accumulation
//     order is identical to scalar — unrolling only widens the window
//     the CPU can schedule loads and multiplies in — so results are
//     bitwise identical.
//   - avx2 (amd64 with AVX2 only): Go-assembly vector kernels for the
//     contiguous elementwise primitives (axpy, scal), which perform one
//     multiply and one add per element and therefore round exactly like
//     the scalar loop (no FMA is used). Reductions keep the unrolled
//     code: any lane-parallel sum would reassociate, which is exactly
//     what the reassoc set is for.
//   - reassoc: multi-accumulator reductions that break the loop-carried
//     add chain for a large speedup on dot-like kernels, at the price
//     of a reassociated (different, still deterministic) summation
//     order. This set is an explicit opt-in: it is excluded from the
//     bitwise backend matrix and its results are tolerance-gated
//     (1e-12-relative) in tests, never asserted bitwise.
//
// The active set is chosen once at init: the best bitwise set the CPU
// supports (avx2 on capable amd64 hardware, unrolled elsewhere), or the
// set named by the SACO_KERNELS environment variable
// (scalar|unrolled|avx2|reassoc). Tests and the parity harness switch
// sets with Use.
//
// # The alpha == 0 contract
//
// Every kernel in the Axpy family — Axpy, ScatterAxpy, GatherAxpy, and
// the sparse row/column kernels built on them — treats alpha == 0 as a
// no-op: the destination is returned untouched, bit for bit. The
// alternative (computing y[i] += 0*x[i]) would normalize -0 to +0 and
// turn Inf/NaN payloads in x into NaNs in y, and historically the
// codebase disagreed with itself kernel by kernel. The no-op semantic
// is enforced centrally in this package's wrappers and asserted for
// every variant (plain, atomic, dense, sparse) by the kernel property
// tests. Scal is not in the family: Scal(0, x) really does zero x
// (modulo 0·NaN = NaN, 0·Inf = NaN), matching the BLAS convention.
package simd
