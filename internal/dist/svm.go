package dist

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/mpi"
	"saco/internal/sparse"
)

// tagGatherX is the point-to-point tag of the final primal-vector
// assembly (collective tags are negative, so any non-negative tag is
// free).
const tagGatherX = 1

// SVM trains a linear SVM by dual coordinate descent on the configured
// cluster with the paper's 1D-column layout (§VI): each rank owns a
// column block of A and the matching slice of the primal vector x, while
// the dual α and the labels are replicated. Every rank runs core's batch
// driver over its block; per outer iteration the local contributions to
// the s×s row Gram G = YYᵀ and the hoisted products x'_j are summed with
// one Allreduce, followed by s communication-free dual updates —
// opt.S <= 1 is the classical one-reduction-per-iteration Alg. 3.
func SVM(a *sparse.CSR, b []float64, opt core.SVMOptions, cl Options) (*SVMResult, error) {
	return SVMFrom(CSRSource{a}, b, opt, cl)
}

// SVMFrom is SVM over any block Source — the entry point for
// out-of-core data (stream.Dataset), whose column blocks are assembled
// with one shard pass per rank instead of slicing a resident CSR.
func SVMFrom(src Source, b []float64, opt core.SVMOptions, cl Options) (*SVMResult, error) {
	cl, err := cl.withDefaults()
	if err != nil {
		return nil, err
	}
	results := make([]*SVMResult, cl.P)
	stats, err := cl.runRecoverable(func(o Options) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			res, err := SVMRank(c, src, b, opt, o)
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	res.Stats = stats
	return res, nil
}

// SVMRank runs one rank's share of the distributed SVM solve over an
// established Comm: the SPMD body that SVMFrom spawns per goroutine and
// that a cmd/sarank process runs alone over its TCP endpoint. The world
// size comes from the Comm (cl.P is ignored). The primal vector X is
// assembled on rank 0 only; Stats is left nil for the driver to fill.
func SVMRank(c *mpi.Comm, src Source, b []float64, opt core.SVMOptions, cl Options) (*SVMResult, error) {
	m, n := src.Dims()
	lo, hi := mpi.BlockRange(n, c.Size(), c.Rank())
	aLoc, err := src.ColsCSR(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d column block [%d,%d): %v", c.Rank(), lo, hi, err)
	}
	if cl.RankWorkers > 1 {
		// Hybrid rank×thread: kernel worker invariance keeps the dual
		// trajectory bitwise identical to the sequential-rank run.
		aLoc = aLoc.WithKernelWorkers(cl.RankWorkers).(*sparse.CSR)
	}
	rk := &svmRank{rank{c: c, cl: &cl, nnz: aLoc.RowNNZ}}
	st, err := core.NewSVMStepper(aLoc, b, opt, rk, rk)
	if err != nil {
		return nil, err
	}
	if err := rk.start(&st.Stepper, svmConfig(c.Size(), &opt, m, n)); err != nil {
		return nil, err
	}
	res, err := st.Run()
	if err != nil {
		return nil, err
	}
	// Assemble the primal vector on rank 0 (charged: shipping the model
	// home is a real cost, and the same one for classic and SA runs).
	x, err := gatherX(c, res.X, n)
	if err != nil {
		return nil, err
	}
	return &SVMResult{
		X: x, Alpha: res.Alpha, Primal: res.Primal, Dual: res.Dual, Gap: res.Gap,
		Trace: rk.trace, Iters: res.Iters,
	}, nil
}

// svmConfig is the fingerprinted SVM configuration (see lassoConfig,
// whose trailing rsag=false it keeps for the same reason).
func svmConfig(p int, opt *core.SVMOptions, m, n int) string {
	return fmt.Sprintf(
		"svm m=%d n=%d p=%d seed=%d iters=%d s=%d lambda=%g loss=%d tol=%g track=%d warm=%t rsag=false",
		m, n, p, opt.Seed, opt.Iters, opt.S, opt.Lambda, opt.Loss,
		opt.Tol, opt.TrackEvery, opt.Alpha0 != nil)
}

// svmRank observes the dual coordinate recurrence for the cost model.
type svmRank struct{ rank }

// BatchSampled charges the Gram and the one hoisted product of a batch
// every rank drew alike from the replicated seed.
func (r *svmRank) BatchSampled(bt *core.Batch) { r.charge(bt, 1) }

// StepDone charges one dual update: the scalar recurrence is replicated
// and sequential; only a step that moved touches rank-local state, the
// primal slice, and that update splits over the hybrid core budget.
func (r *svmRank) StepDone(bt *core.Batch, j int, moved bool) {
	r.c.Compute(4 + 3*float64(j))
	if flops := 2 * float64(r.nnz(bt.Idx[j])); moved && flops > 0 {
		r.c.ComputeParallel(flops)
	}
}

// gatherX concatenates the per-rank primal slices onto rank 0 in layout
// order. Blocks are unequal (BlockRange), so this is a point-to-point
// gather rather than the equal-block collective.
func gatherX(c *mpi.Comm, xLoc []float64, n int) ([]float64, error) {
	p := c.Size()
	if p == 1 {
		out := make([]float64, len(xLoc))
		copy(out, xLoc)
		return out, nil
	}
	if c.Rank() != 0 {
		return nil, c.Send(0, tagGatherX, xLoc)
	}
	x := make([]float64, n)
	copy(x, xLoc)
	for src := 1; src < p; src++ {
		lo, _ := mpi.BlockRange(n, p, src)
		part, err := c.Recv(src, tagGatherX)
		if err != nil {
			return nil, err
		}
		copy(x[lo:], part)
	}
	return x, nil
}
