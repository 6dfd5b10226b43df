package core

import (
	"runtime"

	"saco/internal/mat"
)

// Backend selects where and how a solve's updates run. The solvers
// themselves are backend-agnostic; the backends differ in what they
// trade for speed:
//
//   - BackendSequential and BackendMulticore produce bitwise-identical
//     iterate sequences (every multicore kernel partitions independent
//     output elements with unchanged summation order) — the
//     shared-memory counterpart of the paper's claim that the SA
//     reformulation preserves the classical iterates up to roundoff.
//   - BackendAsync trades that determinism for latency: HOGWILD!-style
//     lock-free workers update one shared iterate through atomic
//     element operations, so runs converge to the same optimum but are
//     not reproducible step for step (cf. Zhou et al. 2021 on
//     asynchronous lock-free optimization, PAPERS.md).
//
// The remaining execution modes — the simulated distributed cluster and
// its hybrid rank×thread variant — live in package dist (see
// saco.DistLasso / saco.DistSVM and Cluster.RankWorkers).
type Backend int

const (
	// BackendSequential runs every kernel on the calling goroutine — the
	// default, and the mode the simulated-cluster ranks use internally.
	BackendSequential Backend = iota
	// BackendMulticore fans the batched kernels out across the persistent
	// shared-memory worker pool (Exec.Workers wide, default GOMAXPROCS),
	// keeping iterates bitwise identical to sequential runs.
	BackendMulticore
	// BackendAsync runs Exec.Workers lock-free solver workers against a
	// shared atomic iterate with per-worker RNG streams: no barriers, no
	// locks, convergent but not deterministic. Supported by the plain
	// Lasso solvers (CD/BCD), the dual-CD SVM and Pegasos; matrices must
	// provide atomic kernels (sparse.CSC / sparse.CSR do).
	BackendAsync
)

// String names the backend for logs and flags.
func (b Backend) String() string {
	switch b {
	case BackendMulticore:
		return "multicore"
	case BackendAsync:
		return "async"
	default:
		return "sequential"
	}
}

// Exec selects the execution backend of a single solve.
type Exec struct {
	// Backend picks sequential (zero value), multicore or async
	// execution.
	Backend Backend
	// Workers is the pool width for BackendMulticore and the solver
	// worker count for BackendAsync; 0 means runtime.GOMAXPROCS(0),
	// resolved at solve time. Ignored by BackendSequential.
	Workers int
}

// workers returns the effective kernel worker count (multicore only:
// async workers run sequential kernels, each worker being one lane of
// the outer parallelism).
func (e Exec) workers() int {
	if e.Backend != BackendMulticore {
		return 1
	}
	return e.width()
}

// AsyncWorkers returns the solver worker count of an async solve
// (1 for non-async backends). Exported for callers of the async
// stepper hooks (NewAsyncLasso / NewAsyncSVM), which take an explicit
// worker count.
func (e Exec) AsyncWorkers() int {
	if e.Backend != BackendAsync {
		return 1
	}
	return e.width()
}

// width resolves Exec.Workers, defaulting to GOMAXPROCS at call time.
func (e Exec) width() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0) //saco:nolint nondet resolves Exec.Workers for the pool; worker count never reaches chunking or summation order
}

// kernelParallelizer is the optional capability the sparse matrix types
// implement: producing a read-only view of themselves whose kernels run
// on w shared-memory workers. The method returns any (rather than a
// matrix interface) so the data-structure package need not depend on
// this package; execCol/execRow narrow the result.
type kernelParallelizer interface {
	WithKernelWorkers(w int) any
}

// asyncColMatrix is the capability the async Lasso solver needs on top
// of ColMatrix: gradient reads and residual updates through the shared
// atomic residual. sparse.CSC and the dense view sparse.DenseCols
// implement it.
type asyncColMatrix interface {
	ColMatrix
	ColTMulVecAtomic(cols []int, v *mat.AtomicVec, dst []float64)
	ColMulAddAtomic(cols []int, coef []float64, v *mat.AtomicVec)
}

// asyncRowMatrix is the row-access counterpart for the async dual-CD
// SVM: stale margin reads and primal updates through the shared atomic
// primal vector. sparse.CSR and the dense view sparse.DenseRows
// implement it.
type asyncRowMatrix interface {
	RowMatrix
	RowDotAtomic(i int, x *mat.AtomicVec) float64
	RowTAxpyAtomic(i int, alpha float64, x *mat.AtomicVec)
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
