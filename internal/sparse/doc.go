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
// # Read-only arrays and the row-block memo
//
// A matrix's arrays are read-only once it is built: nothing stores into
// an element of CSR.RowPtr/ColIdx/Val or CSC.ColPtr/RowIdx/Val after
// construction, and outside this package atomicguard flags any attempt.
// That is what lets a CSR keep the row blocks it has converted:
// RowsToCSC (and ToCSC, the range [0, M)) memoizes each block on the
// matrix, so the 1D-row partition of a distributed solve is transposed
// on the first solve at a given P and shared by every later one. A
// repeated range returns the same *CSC, the bytes the scatter produced;
// a range overlapping held ones evicts them, so held ranges never
// overlap and the memo holds at most one transpose's worth of
// nonzeros. Ranges are built under one once each, so concurrent ranks
// convert their blocks in parallel and the same block once. A block is
// keyed by its range, the matrix's dims and its three slice headers: a
// copy whose arrays or dims were reassigned misses, and a
// WithKernelWorkers view of a converted matrix hits. Empty ranges are
// not held, and ScatterToCSC converts without the memo for a CSR that
// is dropped right after.
//
// # Gram assembly
//
// Every sparse Gram — CSC.ColGram, CSC.ColGramAcc (the streamed row-block
// continuation), CSR.RowGram, and through it stream.RowStream.RowGram —
// is one kernel (gram.go), Gustavson's row-wise sparse product with the
// operands linked into one list per index, in two passes. A worker that
// owns output rows [lo, hi) first pushes operands hi−1 … lo onto the
// lists, each in storage order: an entry (r, x) of operand i becomes a
// node that links to r's list as it stands at that push, x·x goes to a
// diagonal register, and the entry is recorded as a hit, without a
// branch, when the list was not empty. The walk pass then follows the
// hits' links. A node's link freezes the list at its push: from operand
// i's entry it reaches exactly the entries (r, v) of the operands
// j ∈ (i, hi) that store r, so each step adds x·v to dst(i, j), and
// later pushes do not change what it reaches. Operands past the range
// (other workers' rows) are then scanned once each: a marker bit per
// index says whether r has a list, and a marked index walks its whole
// list into column j of the worker's rows. Every operand is read once
// per worker, and every match costs one list step, so a Gram is
// nnz + matches instead of a merge per pair; a list step reads one
// 16-byte node.
//
// Before its push, a worker makes one prefetch pass over its own
// operands in push order: one index word and one value word per 64-byte
// line, folded into an integer sink on its workspace so that the
// compiler keeps the loads. The loads do not depend on each other, so
// their cache misses overlap, where the push, which links an entry
// before it reads the next, would take them one line at a time. The
// pass stops after 256 KiB of operands, so that a batch larger than the
// cache does not evict its first lines before the push reads them. The
// budget is a constant set from BenchmarkGram's cold batches, not an
// option: no budget from 64 KiB to 2 MiB measured apart there.
//
// An operand that stores all dim indices — a column or row of dense
// data, or of a row block it fills — is full, and stays off the lists:
// its diagonal is the sum of its squares, and every entry it takes part
// in gathers the other operand's stored entries into its values in
// ascending index order (a contiguous loop when both are full). Dense
// data so costs a multiply-add per index and entry instead of a list
// step, and a batch without a full operand pays one length compare per
// operand.
//
// The result is bitwise what the pairwise definition gives — one
// two-pointer merge dot (simd.MergeDot) per entry, which is what this
// package computed before and what the tests keep as their oracle —
// because the three things that fix a floating-point sum are unchanged:
// the same matches (the indices both operands store; list membership,
// not a zero in a value workspace, decides, so stored zeros, −0, ±Inf
// and NaN multiply exactly as in a merge), in the same order (ascending
// index: operand i's hits are walked in its storage order, a scan runs
// in operand j's, and both lists are sorted), onto the same initial
// accumulator (+0, or the running dst(i,j) for ColGramAcc). The products
// are vi·vj, left operand first, except that a full operand i multiplies
// as vj·vi: a product's value does not depend on the order, and NaN
// payloads are not part of the contract. There is a single accumulator per
// entry, so there is nothing to vectorize without reassociating, and no
// variant.
//
// Workspaces come from a process-wide free list, one per concurrent
// Gram worker, never from the matrix: concurrent callers and kernel
// helpers may assemble Grams on one shared *CSC at once. One costs 4
// bytes + 1 bit per index (list heads and markers) plus 20 bytes per
// scattered entry (a 16-byte node — float64 value, int32 link, int32
// operand slot — and a 4-byte hit); it grows to the largest batch seen
// and never shrinks, and after the first call a Gram allocates nothing. The links are
// int32, so a worker's operands may store at most 2³¹−1 entries; a
// larger batch panics before it scatters anything, and so does an index
// outside [0, dim).
//
// Nothing clears the list heads between calls. A workspace counts in
// base the nodes its earlier calls pushed, and a call stamps a head
// base + 1 + its newest node, so a head at or below base is an empty
// list, and a finished call only adds its pushes to base. A call whose
// stamps would pass 2³¹−1 clears the heads once and restarts base at
// 0: once in 2³¹ pushed entries, about every 200 000 Grams of the
// benchmark's s = 16, µ = 8 batch. A worker whose operands are not the
// last ones (a forked Gram's) also sets a marker bit per pushed index
// for its scan, and clears those bits before it hands the workspace
// back.
//
// # One triangle
//
// A symmetric matrix is its upper triangle, everywhere in the
// repository. The Grams here (CSC.ColGram, CSR.RowGram, and through
// them the streamed views) write the
// entries i ≤ j and leave the strict lower triangle +0 by bit pattern;
// CSC.ColGramAcc writes only i ≤ j. Nothing mirrors: the solvers in
// package core read G(min(i,j), max(i,j)), mat.LargestEigSym reads the
// upper triangle, and package dist packs, reduces and unpacks only the
// upper triangle, so the lower half is never written after the zeroing
// and never read. It is +0 rather than left stale so that a Gram is a
// well-defined value — two calls on the same input return the same
// bytes — and so that a test can compare every entry.
package sparse
