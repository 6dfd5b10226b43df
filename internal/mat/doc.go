// Package mat provides the small dense linear-algebra kernels needed by
// the synchronization-avoiding coordinate-descent solvers: BLAS-1 vector
// operations, the BLAS-2 matrix-vector product, and symmetric
// eigensolvers for the (block) Gram matrices.
//
// The solvers' step size comes from LargestEigSym: Householder reduction
// of the block to tridiagonal form, then Sturm-sequence bisection for
// its largest eigenvalue, a fixed O(µ³) cost with no convergence test on
// the spectrum. A Laguerre estimate fenced by two Sturm counts lets the
// bisection skip every count whose answer the fence implies (2.5 counts
// per 8×8 block instead of 46) without changing a bit of the result. The cyclic Jacobi method
// (EigSymJacobi) computes every
// eigenvalue and is the tests' oracle for it; bisection that counts
// every midpoint is the oracle for the skipped counts.
//
// The package substitutes for the Intel MKL BLAS used by the paper
// ("Avoiding Synchronization in First-Order Methods for Sparse Convex
// Optimization", Devarakonda et al., IPDPS 2018). Only float64 is
// supported; matrices are dense, row-major, and sized for the paper's
// working sets (Gram blocks of order s·µ, i.e. at most a few thousand).
//
// A symmetric matrix is stored as its upper triangle. The Gram kernels
// of package sparse write the entries i ≤ j and leave the strict lower
// triangle +0, and LargestEigSym reads only i ≤ j, mirroring them into
// its own scratch copy for the Householder reduction. Nothing in the
// repository mirrors a Gram in place: the half it would write is the
// half no reader looks at (see package sparse, "One triangle").
//
// All functions are deterministic: identical inputs produce bitwise
// identical outputs, which the solvers rely on to keep replicated state
// consistent across simulated ranks.
//
// # The alpha == 0 contract
//
// Every kernel in the Axpy family — Axpy, ScatterAxpy, and the sparse
// row/column kernels of package sparse built on them or on its gather
// loops — treats alpha == 0 as a no-op: the destination is returned
// untouched, bit for bit. The alternative (computing y[i] += 0*x[i])
// would normalize -0 to +0 and turn Inf/NaN payloads in x into NaNs in
// y, and historically the codebase disagreed with itself kernel by
// kernel. The no-op is asserted for every variant (dense and
// sparse) by the kernel property tests. Scal is not in the
// family: Scal(0, x) really does zero x (modulo 0·NaN = NaN,
// 0·Inf = NaN), matching the BLAS convention.
package mat
