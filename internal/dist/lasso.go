package dist

import (
	"fmt"

	"saco/internal/core"
	"saco/internal/mpi"
	"saco/internal/sparse"
)

// Lasso solves min ½‖Ax−b‖² + g(x) on the configured cluster with the
// paper's 1D-row layout (Fig. 1): each rank owns a contiguous row block
// of A (stored as CSC for column sampling) and the matching slice of the
// residual image, while the iterate x (or z, y when accelerated) is
// replicated. Every rank runs core's batch driver over its block; per
// outer iteration the local contributions to the batched Gram G = YᵀY
// and the hoisted products are summed with one Allreduce, followed by s
// communication-free inner iterations — with opt.S <= 1 this is the
// classical one-reduction-per-iteration algorithm.
func Lasso(a *sparse.CSR, b []float64, opt core.LassoOptions, cl Options) (*LassoResult, error) {
	return LassoFrom(CSRSource{a}, b, opt, cl)
}

// LassoFrom is Lasso over any block Source — the entry point for
// out-of-core data (stream.Dataset), whose row blocks are loaded shard
// by shard instead of slicing a resident CSR.
func LassoFrom(src Source, b []float64, opt core.LassoOptions, cl Options) (*LassoResult, error) {
	cl, err := cl.withDefaults()
	if err != nil {
		return nil, err
	}
	results := make([]*LassoResult, cl.P)
	stats, err := cl.runRecoverable(func(o Options) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			res, err := LassoRank(c, src, b, opt, o)
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

// LassoRank runs one rank's share of the distributed Lasso solve over an
// established Comm: the SPMD body that LassoFrom spawns per goroutine
// and that a cmd/sarank process runs alone over its TCP endpoint. The
// world size comes from the Comm (cl.P is ignored), so the same body
// runs unchanged in-process and across machines. All ranks return the
// full replicated result; Stats is left nil for the driver to fill.
func LassoRank(c *mpi.Comm, src Source, b []float64, opt core.LassoOptions, cl Options) (*LassoResult, error) {
	m, n := src.Dims()
	// b is sliced by row range below, so the options are checked against
	// the whole problem here, before any block is loaded.
	if err := opt.Validate(m, n, len(b)); err != nil {
		return nil, err
	}
	lo, hi := mpi.BlockRange(m, c.Size(), c.Rank())
	aLoc, err := src.RowsCSC(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d row block [%d,%d): %v", c.Rank(), lo, hi, err)
	}
	if cl.RankWorkers > 1 {
		// Hybrid rank×thread: the rank's kernels really run on the
		// shared-memory pool. Kernel worker invariance keeps the
		// iterates bitwise identical to the sequential-rank run.
		aLoc = aLoc.WithKernelWorkers(cl.RankWorkers).(*sparse.CSC)
	}
	rk := &lassoRank{rank: rank{c: c, cl: &cl, nnz: aLoc.ColNNZ}, images: 1, scalarFlops: 5}
	if opt.Accelerated {
		rk.images, rk.scalarFlops = 2, 8
	}
	st, err := core.NewLassoStepper(aLoc, b[lo:hi], opt, rk, rk)
	if err != nil {
		return nil, err
	}
	if err := rk.start(&st.Stepper, lassoConfig(c, &opt, &cl, m, n)); err != nil {
		return nil, err
	}
	res, err := st.Run()
	if err != nil {
		return nil, err
	}
	return &LassoResult{X: res.X, Objective: res.Objective, Trace: rk.trace, Iters: res.Iters}, nil
}

// lassoConfig is the fingerprinted solver configuration: everything that
// shapes the trajectory, so a checkpoint never resumes a different run.
func lassoConfig(c *mpi.Comm, opt *core.LassoOptions, cl *Options, m, n int) string {
	variant := "plain"
	if opt.Accelerated {
		variant = "acc"
	}
	return fmt.Sprintf(
		"lasso/%s m=%d n=%d p=%d seed=%d iters=%d s=%d mu=%d groups=%d reg=%t lambda=%g track=%d warm=%t bcast=%t fullgram=%t rsag=%t",
		variant, m, n, c.Size(), opt.Seed, opt.Iters, opt.S, opt.BlockSize,
		len(opt.Groups), opt.Reg != nil, opt.Lambda, opt.TrackEvery,
		opt.X0 != nil, cl.BroadcastIndices, cl.FullGramPack, cl.RSAGAllreduce)
}

// lassoRank observes the Lasso recurrences for the cost model.
type lassoRank struct {
	rank
	// images is the number of row-partitioned image vectors the solver
	// maintains (r; or z̃ and ỹ when accelerated): one hoisted product per
	// batch and one streamed update per inner step each.
	images int
	// scalarFlops is the replicated per-coordinate work of an inner step
	// beside λmax and the correction sums (gradient, prox, deltas).
	scalarFlops float64
}

// BatchSampled agrees on the batch — already, by the replicated seed, or
// by broadcast under the BroadcastIndices ablation — and charges its
// Gram and product assembly.
func (r *lassoRank) BatchSampled(bt *core.Batch) error {
	if r.cl.BroadcastIndices {
		if err := r.bcastBlocks(bt); err != nil {
			return err
		}
	}
	r.charge(bt, r.images)
	return nil
}

// bcastBlocks is the broadcast-indices ablation: rank 0 ships its draw
// as length-prefixed blocks, in a message sized for blocks of the
// largest kind, and every rank adopts it. The flattened message is what
// the replicated-seed discipline saves.
func (r *lassoRank) bcastBlocks(bt *core.Batch) error {
	sb := bt.Blocks()
	buf := r.scratch(1 + sb*(bt.MaxBlock+1))
	if r.c.Rank() == 0 {
		buf[0] = float64(sb)
		w := 1
		for j := 0; j < sb; j++ {
			blk := bt.Block(j)
			buf[w] = float64(len(blk))
			w++
			for _, idx := range blk {
				buf[w] = float64(idx)
				w++
			}
		}
		clear(buf[w:])
	}
	if err := r.c.Bcast(0, buf); err != nil {
		return err
	}
	w := 1
	for j := 0; j < sb; j++ {
		w++ // the length: group sizes are configuration, equal on every rank
		blk := bt.Block(j)
		for i := range blk {
			blk[i] = int(buf[w])
			w++
		}
	}
	return nil
}

// StepDone charges one inner step. Redundant scalar work (λmax,
// correction sums, prox) is per-rank sequential; the image updates
// stream the owned nonzeros and split over the hybrid core budget.
func (r *lassoRank) StepDone(bt *core.Batch, j int, _ bool) {
	idx := bt.Block(j)
	mu := float64(len(idx))
	flops := eigFlops(len(idx)) + r.scalarFlops*mu
	for t := 0; t < j; t++ {
		flops += 2 * mu * float64(len(bt.Block(t)))
	}
	r.c.Compute(flops)
	r.c.ComputeParallel(2 * float64(r.images) * float64(r.batchNNZ(idx)))
}

// eigFlops is the nominal cost charged for the power-iteration λmax of a
// µ×µ block (a handful of Gemv sweeps).
func eigFlops(mu int) float64 {
	if mu == 1 {
		return 1
	}
	return 20 * float64(mu) * float64(mu)
}
