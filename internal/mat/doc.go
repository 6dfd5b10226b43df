// Package mat provides the small dense linear-algebra kernel set needed by
// the synchronization-avoiding coordinate-descent solvers: BLAS-1 vector
// operations, the BLAS-2 matrix-vector product, and symmetric
// eigensolvers for the (block) Gram matrices.
//
// The package substitutes for the Intel MKL BLAS used by the paper
// ("Avoiding Synchronization in First-Order Methods for Sparse Convex
// Optimization", Devarakonda et al., IPDPS 2018). Only float64 is
// supported; matrices are dense, row-major, and sized for the paper's
// working sets (Gram blocks of order s·µ, i.e. at most a few thousand).
//
// All functions are deterministic: identical inputs produce bitwise
// identical outputs, which the solvers rely on to keep replicated state
// consistent across simulated ranks.
package mat
