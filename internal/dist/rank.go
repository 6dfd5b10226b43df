package dist

import (
	"saco/internal/core"
	"saco/internal/mat"
	"saco/internal/mpi"
)

// rank is one rank's end of the seam of core's batch driver, the part
// that does not depend on the objective: the Reducer that turns the
// driver's local Gram and products into the global ones with one
// Allreduce per outer step, and of the Observer the cost-model charge of
// a batch, unmetered measurements, rank 0's trace and the checkpoints.
// lassoRank and svmRank add the events whose cost formulas differ.
type rank struct {
	c  *mpi.Comm
	cl *Options
	// nnz returns this rank's nonzeros in column (Lasso) or row (SVM) i.
	nnz   func(i int) int
	st    *core.Stepper
	ck    *ckptSession  // nil when checkpointing is off
	buf   []float64     // Allreduce packing scratch
	mark  mpi.StatsMark // where BeginMeasure found clock and traffic
	trace []TimedPoint  // rank 0 only
}

// scratch returns the rank's message buffer with room for n words.
func (r *rank) scratch(n int) []float64 {
	if cap(r.buf) < n {
		r.buf = make([]float64, n)
	}
	return r.buf[:n]
}

// start binds the rank to its solver and, under Checkpoint.Resume,
// restores the agreed snapshot into it. Incrementally maintained state
// (residual images, the primal slice) is restored, never recomputed: a
// fresh product could round differently from the accumulated updates and
// break bitwise identity with the uninterrupted run — the images the
// stepper computed for iteration zero are simply overwritten. The
// restored RNG cursor replays the exact draw sequence (replicated-seed
// discipline).
func (r *rank) start(st *core.Stepper, config string) error {
	r.st = st
	r.ck = newCkptSession(r.cl.Checkpoint, r.c, config)
	ck, err := r.ck.resume()
	if err != nil || ck == nil {
		return err
	}
	if err := restoreVecs(ck, st.State()...); err != nil {
		return err
	}
	st.Stream().SetState(ck.Rng)
	r.c.SetRankStats(ck.Stats)
	if r.c.Rank() == 0 {
		r.trace = append(r.trace[:0], ck.Trace...)
	}
	st.Resume(ck.Step, ck.Theta)
	return nil
}

// SumBatch is the one reduction of an outer step: the Gram's upper
// triangle and the products travel as a single packed message, and only
// the upper triangle comes back.
func (r *rank) SumBatch(gram *mat.Dense, prods [][]float64) error {
	buf := r.scratch((gram.R + len(prods)) * gram.R)
	words := packGram(gram, prods, buf)
	if err := r.c.Allreduce(mpi.Sum, buf[:words]); err != nil {
		return err
	}
	unpackGram(buf[:words], gram, prods)
	if reducedGramHook != nil {
		reducedGramHook(gram)
	}
	return nil
}

// reducedGramHook, set only by this package's tests before a solve
// starts, sees every reduced Gram before the inner steps read it.
var reducedGramHook func(gram *mat.Dense)

func (r *rank) SumScalar(v float64) (float64, error) { return r.c.AllreduceScalar(mpi.Sum, v) }

func (r *rank) SumVec(v []float64) error { return r.c.Allreduce(mpi.Sum, v) }

// batchNNZ sums this rank's nonzeros over the given columns or rows.
func (r *rank) batchNNZ(idx []int) int {
	nnz := 0
	for _, i := range idx {
		nnz += r.nnz(i)
	}
	return nnz
}

// charge books the local Gram and product assembly of a sampled batch,
// prods hoisted products beside the Gram. Each of the k(k+1)/2 merges
// streams two columns (rows), so the Gram is ~(k+1)·nnz(S) flops. Batched
// (s > 1) assembly is the BLAS-3-like kernel the paper credits for part
// of the SA speedup; it runs at the blocked rate while its working set
// fits cache. Both assemblies partition over the owned nonzeros, so the
// hybrid core budget divides their modeled time (the *Parallel variants
// are plain Compute at one core).
func (r *rank) charge(bt *core.Batch, prods int) {
	k, nnz := len(bt.Idx), r.batchNNZ(bt.Idx)
	gramFlops := float64(k+1) * float64(nnz)
	if bt.Blocks() > 1 {
		r.c.ComputeBlockedParallel(gramFlops, k*k+2*nnz)
	} else {
		r.c.ComputeParallel(gramFlops)
	}
	r.c.ComputeParallel(2 * float64(prods) * float64(nnz))
}

// BeginMeasure and EndMeasure keep objective evaluations out of the
// model: the Mark/Restore pair rewinds clock and traffic.
func (r *rank) BeginMeasure() { r.mark = r.c.Mark() }

func (r *rank) EndMeasure() { r.c.Restore(r.mark) }

// Tracked stamps a convergence measurement with the modeled time at
// which it was taken.
func (r *rank) Tracked(h int, value float64) {
	if r.c.Rank() == 0 {
		r.trace = append(r.trace, TimedPoint{Iter: h, Seconds: r.c.Elapsed(), Value: value})
	}
}

// BatchDone is the checkpoint boundary. The vectors are serialized
// before endBatch returns, so the live buffers are safe to hand over.
func (r *rank) BatchDone(h int, theta float64, state [][]float64) error {
	return r.ck.endBatch(h, func() rankCkpt {
		ck := rankCkpt{Rng: r.st.Stream().State(), Stats: r.c.RankStats(), Theta: theta, Vecs: state}
		if r.c.Rank() == 0 {
			ck.Trace = r.trace
		}
		return ck
	})
}
