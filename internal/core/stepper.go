package core

import (
	"saco/internal/mat"
	"saco/internal/rng"
)

// This file is the one s-step batch driver every deterministic solver
// in the repository runs on, and the seam through which package dist
// turns it into the distributed method. One outer step is
//
//	sample sb blocks → local Gram + hoisted products → reduce →
//	sb communication-free inner steps (→ track) → end of batch
//
// which is Alg. 2/4 verbatim. The classical Alg. 1/3 are the same loop
// at s = 1 (a batch of one block), and the distributed solvers are the
// same loop over a rank's block of A with a Reducer that sums the local
// contributions (§III, Fig. 1: one Allreduce per outer step). With a nil
// Reducer the block is the whole problem and nothing is packed or sent.

// Batch is the sampled index set of one outer step: columns of A for the
// Lasso family, rows for the SVM.
type Batch struct {
	// Idx is the concatenation of the sampled blocks.
	Idx []int
	// Off holds the block boundaries: block j is Idx[Off[j]:Off[j+1]].
	Off []int
	// MaxBlock is the largest block any batch of the solve can hold.
	MaxBlock int
}

// Blocks returns the number of sampled blocks (inner steps) of the batch.
func (b *Batch) Blocks() int { return len(b.Off) - 1 }

// Block returns the j-th sampled block.
func (b *Batch) Block(j int) []int { return b.Idx[b.Off[j]:b.Off[j+1]] }

func (b *Batch) reset() {
	b.Idx = b.Idx[:0]
	b.Off = append(b.Off[:0], 0)
}

func (b *Batch) add(blk ...int) {
	b.Idx = append(b.Idx, blk...)
	b.Off = append(b.Off, len(b.Idx))
}

// Reducer sums rank-local partial results over the ranks of a
// distributed solve. Every rank must make the same calls in the same
// order; the sums must come back bitwise identical on every rank, which
// is what keeps the replicated state replicated.
type Reducer interface {
	// SumBatch replaces the local Gram block (symmetric) and the hoisted
	// product vectors by their sums over all ranks: the one reduction of
	// an outer step.
	SumBatch(gram *mat.Dense, prods [][]float64) error
	// SumScalar returns the sum of v over all ranks; SumVec sums v in
	// place. Only objective evaluations call them.
	SumScalar(v float64) (float64, error)
	SumVec(v []float64) error
}

// Observer follows a solve from the outside: cost accounting, traces
// stamped with their own clock, checkpoints. A solve observed is bitwise
// the solve unobserved.
type Observer interface {
	// BatchSampled is called once the batch's blocks are drawn, before
	// any kernel touches them. The index-broadcast ablation of package
	// dist overwrites bt.Idx here with the (identical) draw of rank 0.
	BatchSampled(bt *Batch) error
	// StepDone is called after inner step j of the batch; moved reports
	// whether the step changed the iterate.
	StepDone(bt *Batch, j int, moved bool)
	// BeginMeasure and EndMeasure bracket every objective evaluation,
	// which is instrumentation and may call the Reducer.
	BeginMeasure()
	EndMeasure()
	// Tracked reports the value measured at a TrackEvery point, after
	// iteration h.
	Tracked(h int, value float64)
	// BatchDone ends an outer step after h iterations in total. state
	// holds the live solver vectors in the order of Stepper.State and
	// theta the acceleration parameter (0 where there is none); neither
	// may be kept or changed.
	BatchDone(h int, theta float64, state [][]float64) error
}

// recurrence is what an objective plugs into the batch driver: how a
// block is drawn, what is computed per batch, and one inner step.
type recurrence interface {
	// sample appends sb blocks to the driver's batch.
	sample(sb int)
	// local fills the driver's Gram with this block's contribution and
	// returns the hoisted products, the other summands of the reduction.
	local() [][]float64
	// step runs inner step j from the reduced Gram and products alone.
	step(j int) (moved bool)
	// track evaluates the convergence measure at the current iteration,
	// records it in the result history and returns it.
	track() (float64, error)
}

// Stepper is the batch driver. NewLassoStepper and NewSVMStepper build it
// around an objective; a caller that restores a checkpoint overwrites
// State and Stream and calls Resume before Run.
type Stepper struct {
	rec        recurrence
	red        Reducer
	obs        Observer
	stream     *rng.Stream
	state      [][]float64
	iters, s   int
	trackEvery int
	tol        float64 // stop once a tracked value falls to tol (0: never)

	h       int     // inner iterations done
	theta   float64 // acceleration parameter (accelerated Lasso only)
	bt      Batch
	gram    mat.Dense // re-sliced over gramBuf every batch
	gramBuf []float64
}

func (d *Stepper) init(rec recurrence, stream *rng.Stream, red Reducer, obs Observer, iters, s, trackEvery, maxBlock int) {
	d.rec, d.stream, d.red, d.obs = rec, stream, red, obs
	d.iters, d.s, d.trackEvery = iters, s, trackEvery
	k := s * maxBlock
	d.bt = Batch{Idx: make([]int, 0, k), Off: make([]int, 0, s+1), MaxBlock: maxBlock}
	d.gramBuf = make([]float64, k*k)
}

// State returns the live solver vectors, in a fixed order per objective:
// x, r (plain Lasso); z, y, z̃, ỹ (accelerated); α, x (SVM).
func (d *Stepper) State() [][]float64 { return d.state }

// Stream returns the sampling generator; its state is the solve's
// position in the replicated draw sequence.
func (d *Stepper) Stream() *rng.Stream { return d.stream }

// Resume continues a solve whose State and Stream were restored from a
// snapshot taken by BatchDone(h, theta, …).
func (d *Stepper) Resume(h int, theta float64) { d.h, d.theta = h, theta }

// run drives outer steps until the iteration budget or the tolerance is
// reached.
func (d *Stepper) run() error {
	for done := false; d.h < d.iters && !done; {
		sb := min(d.s, d.iters-d.h)
		d.bt.reset()
		d.rec.sample(sb)
		if d.obs != nil {
			if err := d.obs.BatchSampled(&d.bt); err != nil {
				return err
			}
		}
		k := len(d.bt.Idx)
		d.gram.R, d.gram.C, d.gram.Data = k, k, d.gramBuf[:k*k]
		prods := d.rec.local()
		if d.red != nil {
			if err := d.red.SumBatch(&d.gram, prods); err != nil {
				return err
			}
		}
		for j := 0; j < sb && !done; j++ {
			moved := d.rec.step(j)
			if d.obs != nil {
				d.obs.StepDone(&d.bt, j, moved)
			}
			d.h++
			if d.trackEvery > 0 && d.h%d.trackEvery == 0 {
				v, err := d.measure(d.rec.track)
				if err != nil {
					return err
				}
				if d.obs != nil {
					d.obs.Tracked(d.h, v)
				}
				done = d.tol > 0 && v <= d.tol
			}
		}
		if d.obs != nil {
			if err := d.obs.BatchDone(d.h, d.theta, d.state); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure evaluates an objective as instrumentation.
func (d *Stepper) measure(eval func() (float64, error)) (float64, error) {
	if d.obs == nil {
		return eval()
	}
	d.obs.BeginMeasure()
	v, err := eval()
	d.obs.EndMeasure()
	return v, err
}

// sumScalar and sumVec complete a local partial result when the solve is
// distributed.
func (d *Stepper) sumScalar(v float64) (float64, error) {
	if d.red == nil {
		return v, nil
	}
	return d.red.SumScalar(v)
}

func (d *Stepper) sumVec(v []float64) error {
	if d.red == nil {
		return nil
	}
	return d.red.SumVec(v)
}
