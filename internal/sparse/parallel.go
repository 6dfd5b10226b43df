package sparse

import rt "saco/internal/runtime"

// Shared-memory backend plumbing for the sparse matrix types.
//
// Every matrix carries a worker count for its kernels; the zero value is
// sequential, so struct literals and the simulated ranks (which fork
// only under a per-rank core budget) run inline. Solvers opt in per
// solve through WithKernelWorkers, which returns a shallow view sharing
// the index/value storage — kernels only read the matrix, so views are
// safe to use concurrently.
//
// The parallel kernels partition *independent output elements* (rows of
// an SpMV, entries of a batched product, rows of a Gram triangle) and
// keep every element's summation order unchanged, so a multicore kernel
// is bitwise identical to its sequential run — the property the
// backend-equivalence tests in internal/core assert end to end.

// kernelWorkers normalizes a requested worker count: anything below 2
// means sequential.
func kernelWorkers(w int) int {
	if w < 2 {
		return 1
	}
	return w
}

// WithKernelWorkers returns a view of the matrix whose kernels fan out
// across w workers (w < 2 gives the sequential view). The view shares
// the underlying storage.
func (a *CSC) WithKernelWorkers(w int) any {
	b := *a
	b.workers = kernelWorkers(w)
	return &b
}

// KernelWorkers reports the worker count of this matrix's kernels.
func (a *CSC) KernelWorkers() int { return kernelWorkers(a.workers) }

// WithKernelWorkers returns a view of the matrix whose kernels fan out
// across w workers (w < 2 gives the sequential view). The view shares
// the underlying storage and, once the matrix has converted a row
// block, its memo of converted blocks.
func (a *CSR) WithKernelWorkers(w int) any {
	return a.view(kernelWorkers(w))
}

// KernelWorkers reports the worker count of this matrix's kernels.
func (a *CSR) KernelWorkers() int { return kernelWorkers(a.workers) }

// forkWidth is the executor count of a kernel on workers over the
// operands sel of a compressed matrix with pointers ptr: the runtime's
// work rule applied to their stored entries plus extra (a Gram's output
// pairs). A sequential kernel counts nothing.
func forkWidth(workers int, ptr, sel []int, extra int) int {
	if workers < 2 {
		return 1
	}
	work := extra
	for _, op := range sel {
		work += ptr[op+1] - ptr[op]
	}
	return rt.Width(workers, work)
}
