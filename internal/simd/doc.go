// Package simd holds the repository's hot floating-point primitives:
// the dense dot/axpy pair, the squared norm, the gather-dot and
// scatter-axpy at the heart of every CSR/CSC kernel, the sorted-merge
// dot of two sparse vectors (sparse-request scoring; the pairwise
// definition of a Gram entry, kept as its test oracle), and a fused
// gather-multiply-accumulate SpMV row loop.
//
// Every primitive has one implementation: the original pure-Go loops
// in scalar.go, whose summation order defines the deterministic
// backend matrix. A lane-parallel or multi-accumulator sum would
// reassociate, so none exists.
//
// # Why Axpy and Scal have no vector body
//
// The two contiguous elementwise primitives once also had an AVX2
// assembly body (one VMULPD and one VADDPD per element, bitwise equal
// to the loop), chosen at init by a CPUID probe. It was deleted
// because no benchmark workload runs either primitive hot: the paper's
// compute gain comes from the batched Gram, not from vectorized BLAS-1
// updates. What it bought, measured on a 2-vCPU AVX2 VM with go1.24:
//
//   - Axpy on 16 384 words: 2.9–3.2 µs with AVX2, 7.6–8.7 µs with the
//     loop. A Lasso solve calls it once (r = A·x0 − b), a ~5 µs gap in
//     a 37–100 ms benchmark op.
//   - Scal runs twice per block eigenvalue, on the µ²-word copy of a
//     Gram block, where a call into assembly buys nothing.
//   - Dense-row SVM solves (DenseRows.RowTAxpy, one Axpy per sampled
//     row) on the gisette and duke replicas, which no benchmark
//     workload runs: the loop is 12–14 % slower at s = 1 and 1–4 %
//     slower at s = 64.
//
// A future vector or placement-aligned body (ROADMAP item 6) is
// build-tagged, with the Go loop as its fallback and its test oracle.
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
