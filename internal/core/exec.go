package core

import rt "saco/internal/runtime"

// Backend selects where a solve's kernels run. BackendSequential and
// BackendMulticore produce bitwise-identical iterate sequences (every
// multicore kernel partitions independent output elements with
// unchanged summation order) — the shared-memory counterpart of the
// paper's claim that the SA reformulation preserves the classical
// iterates up to roundoff.
//
// The remaining execution modes — the simulated distributed cluster and
// its hybrid rank×thread variant — live in package dist (see
// saco.DistLasso / saco.DistSVM and Cluster.RankWorkers).
type Backend int

const (
	// BackendSequential runs every kernel on the calling goroutine — the
	// default, and the mode the simulated-cluster ranks use internally.
	BackendSequential Backend = iota
	// BackendMulticore forks the batched kernels across up to
	// Exec.Workers shared-memory executors (default GOMAXPROCS) where
	// internal/runtime's work rule says the work pays for a fork, keeping
	// iterates bitwise identical to sequential runs.
	BackendMulticore
)

// String names the backend for logs and flags.
func (b Backend) String() string {
	if b == BackendMulticore {
		return "multicore"
	}
	return "sequential"
}

// Exec selects the execution backend of a single solve.
type Exec struct {
	// Backend picks sequential (zero value) or multicore execution.
	Backend Backend
	// Workers is the kernel width for BackendMulticore; 0 means
	// runtime.GOMAXPROCS(0), resolved at solve time. Ignored by
	// BackendSequential.
	Workers int
}

// workers returns the effective kernel worker count.
func (e Exec) workers() int {
	if e.Backend != BackendMulticore {
		return 1
	}
	return rt.Resolve(e.Workers)
}

// kernelParallelizer is the optional capability the sparse matrix types
// implement: producing a read-only view of themselves whose kernels run
// on w shared-memory workers. The method returns any (rather than a
// matrix interface) so the data-structure package need not depend on
// this package; execCol/execRow narrow the result.
type kernelParallelizer interface {
	WithKernelWorkers(w int) any
}

// execCol applies the Exec knob to a column-access matrix, returning the
// matrix view the solver should use. Matrices without the capability run
// sequentially regardless of the requested backend.
func execCol(a ColMatrix, e Exec) ColMatrix {
	w := e.workers()
	if w <= 1 {
		return a
	}
	if kp, ok := a.(kernelParallelizer); ok {
		if pa, ok := kp.WithKernelWorkers(w).(ColMatrix); ok {
			return pa
		}
	}
	return a
}

// execRow applies the Exec knob to a row-access matrix.
func execRow(a RowMatrix, e Exec) RowMatrix {
	w := e.workers()
	if w <= 1 {
		return a
	}
	if kp, ok := a.(kernelParallelizer); ok {
		if pa, ok := kp.WithKernelWorkers(w).(RowMatrix); ok {
			return pa
		}
	}
	return a
}
