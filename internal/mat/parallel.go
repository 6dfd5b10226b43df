package mat

import rt "saco/internal/runtime"

// The solver hot paths parallelize through the per-matrix kernel views
// of internal/sparse (WithKernelWorkers, selected per solve by
// core.Exec). Dense library work outside the solvers — dataset
// generation — runs on internal/runtime's pool at GOMAXPROCS width under
// the same contract: only independent output elements are partitioned
// and each keeps its sequential summation order, so no result depends on
// the width.

// GemvParallel computes y = alpha*A*x + beta*y, partitioning rows of A
// across the pool. Row partitioning keeps the output regions disjoint
// and each row's dot product in sequential order, so the result is
// bitwise that of the one-goroutine row-dot loop at any pool width.
func GemvParallel(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	if len(x) != a.C || len(y) != a.R {
		panic("mat: GemvParallel shape mismatch")
	}
	rt.For(0, a.R, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := Dot(a.Row(i), x)
			y[i] = alpha*s + beta*y[i]
		}
	})
}
