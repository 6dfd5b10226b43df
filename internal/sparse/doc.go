// Package sparse implements the compressed sparse row (CSR) and column
// (CSC) matrix formats and the access kernels the synchronization-avoiding
// coordinate-descent solvers require:
//
//   - column sampling: extract µ (or s·µ) columns and form Gram matrices
//     AᵀS·A_S and products AᵀS·v (the Lasso side, 1D-row partitioned),
//   - row sampling: extract rows and form Gram matrices A_R·AᵀR and
//     products A_R·x (the SVM side, 1D-column partitioned),
//   - slicing by row/column ranges, which is how the distributed runtime
//     partitions a global matrix across ranks.
//
// The paper stores all datasets in 3-array CSR (§IV-B); this package also
// keeps CSC because the Lasso solvers sample columns, which is the natural
// CSC access pattern. Index arrays are int and values float64. Within each
// row (CSR) or column (CSC) the indices are strictly increasing, which the
// Gram kernel and the merge-based sparse dot products rely on;
// constructors enforce it.
//
// # Gram assembly
//
// Every sparse Gram — CSC.ColGram, CSC.ColGramAcc (the streamed row-block
// continuation), CSR.RowGram, and through it stream.RowStream.RowGram —
// is one sparse-accumulator kernel (gram.go). For output row i it
// scatters operand i (a sampled column or row) once into a dense
// workspace and sets one marker bit per stored index; entry (i, j ≥ i)
// is then a masked gather over operand j's index list: where the marker
// is set, add vi·vj to the entry's accumulator. The operand is un-
// scattered (its marker words cleared) before the next row.
//
// The result is bitwise what the pairwise definition gives — one
// two-pointer merge dot (simd.MergeDot) per entry, which is what this
// package computed before and what the tests keep as their oracle —
// because the three things that fix a floating-point sum are unchanged:
// the same matches (the indices both operands store; the marker, not a
// zero in the value workspace, decides, so stored zeros, −0, ±Inf and NaN
// multiply exactly as in a merge), in the same order (ascending index,
// since operand j is walked in storage order), onto the same initial
// accumulator (+0, or the running dst(i,j) for ColGramAcc). There is a
// single accumulator per entry, so there is nothing to vectorize
// without reassociating, and no variant. What changes is the work: a merge
// walks both operands for every pair, k(k+1)/2 · (nnz_i + nnz_j) index
// comparisons; the gather walks operand j only and compares nothing.
//
// Workspaces (8 bytes + 1 bit per index) come from a process-wide free
// list, one per concurrent Gram worker, never from the matrix: HOGWILD
// workers and pool workers assemble Grams on one shared *CSC at once.
// After the first call a Gram allocates nothing.
package sparse
