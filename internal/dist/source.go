package dist

import "saco/internal/sparse"

// Source supplies the partitioned blocks the distributed loaders need,
// decoupling the simulated cluster from a resident CSR: ranks ask for
// exactly their block in the paper's two layouts (rows for Lasso's
// Fig. 1, columns for the SVM's §VI) and the source decides how to
// produce it. CSRSource adapts an in-memory matrix; stream.Dataset
// implements the same pair out of core, so paper-scale replicas are
// loaded shard by shard instead of materializing the full matrix before
// partitioning.
//
// Implementations must be safe for concurrent calls: every simulated
// rank runs on its own goroutine and loads its block during setup.
type Source interface {
	// Dims returns (rows m, columns n) of the full matrix.
	Dims() (int, int)
	// RowsCSC returns rows [lo, hi) as a column-accessible block with
	// the full column space (the Lasso 1D-row layout).
	RowsCSC(lo, hi int) (*sparse.CSC, error)
	// ColsCSR returns columns [c0, c1), reindexed to start at zero,
	// keeping all rows (the SVM 1D-column layout).
	ColsCSR(c0, c1 int) (*sparse.CSR, error)
}

// CSRSource adapts a resident sparse.CSR to the Source interface: a row
// block is RowsToCSC(lo, hi), the bytes of SliceRows(lo, hi).ToCSC()
// without the copy of the rows, and a column block is SliceCols(c0, c1).
// The CSR keeps the row blocks it has converted, so repeated solves on
// one matrix at one P share each rank's block instead of transposing it
// again; a block is read-only to every solve that receives it. Column
// blocks are sliced afresh on every call.
type CSRSource struct{ A *sparse.CSR }

// Dims returns the matrix dimensions.
func (s CSRSource) Dims() (int, int) { return s.A.Dims() }

// RowsCSC returns rows [lo, hi) as CSC, converted on the first request
// for that range.
func (s CSRSource) RowsCSC(lo, hi int) (*sparse.CSC, error) {
	return s.A.RowsToCSC(lo, hi), nil
}

// ColsCSR slices columns [c0, c1).
func (s CSRSource) ColsCSR(c0, c1 int) (*sparse.CSR, error) {
	return s.A.SliceCols(c0, c1), nil
}
