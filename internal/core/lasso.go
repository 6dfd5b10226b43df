package core

import (
	"math"

	"saco/internal/mat"
	"saco/internal/rng"
)

// Lasso solves min_x ½‖Ax−b‖² + g(x) with randomized (block) coordinate
// descent. Options select plain vs accelerated and the unrolling depth S;
// every combination runs the one batch driver of stepper.go, the
// classical Alg. 1 being its S <= 1 case, so SA and classical runs with
// equal seeds produce the same iterate sequence in exact arithmetic.
func Lasso(a ColMatrix, b []float64, opt LassoOptions) (*LassoResult, error) {
	st, err := NewLassoStepper(execCol(a, opt.Exec), b, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	return st.Run()
}

// blockSampler yields the coordinate block of each iteration: either µ
// uniform draws without replacement or one whole group.
type blockSampler struct {
	r      *rng.Stream
	n      int
	groups [][]int
	blk    []int     // the µ draws of the last next()
	swaps  rng.Swaps // rng.SampleKInto's scratch
}

func newBlockSampler(r *rng.Stream, opt *LassoOptions, n int) *blockSampler {
	mu := opt.mu()
	return &blockSampler{r: r, n: n, groups: opt.Groups,
		blk: make([]int, mu), swaps: rng.NewSwaps(mu)}
}

// next returns the next sampled block (Alg. 1 line 5 / Alg. 2 line 6),
// valid until the following call.
func (s *blockSampler) next() []int {
	if s.groups != nil {
		return s.groups[s.r.Intn(len(s.groups))]
	}
	s.r.SampleKInto(s.n, s.blk, s.swaps)
	return s.blk
}

// numBlocks returns q, the block count of the acceleration schedule
// (Alg. 1 line 3: q = ⌈n/µ⌉, or the number of groups).
func (s *blockSampler) numBlocks() int {
	if s.groups != nil {
		return len(s.groups)
	}
	return (s.n + len(s.blk) - 1) / len(s.blk)
}

// theta0 returns the initial acceleration parameter (Alg. 1 line 2:
// θ₀ = µ/n; 1/#groups under group sampling).
func (s *blockSampler) theta0() float64 {
	if s.groups != nil {
		return 1 / float64(len(s.groups))
	}
	return float64(len(s.blk)) / float64(s.n)
}

// maxBlock returns the largest block size the solver must buffer for.
func (s *blockSampler) maxBlock() int {
	if s.groups == nil {
		return len(s.blk)
	}
	m := 0
	for _, g := range s.groups {
		m = max(m, len(g))
	}
	return m
}

// LassoStepper is the batch driver around the Lasso recurrences: a is
// the whole matrix, or one rank's row block of it with b the matching
// slice and red summing over the ranks.
type LassoStepper struct {
	Stepper
	blk *lassoBlock
}

// NewLassoStepper validates opt against the block it is handed and
// builds the solver at iteration zero: the initial residual image is
// computed here. red and obs may be nil.
func NewLassoStepper(a ColMatrix, b []float64, opt LassoOptions, red Reducer, obs Observer) (*LassoStepper, error) {
	m, n := a.Dims()
	if err := opt.Validate(m, n, len(b)); err != nil {
		return nil, err
	}
	smp := newBlockSampler(rng.New(opt.Seed), &opt, n)
	// No batch holds more than Iters blocks, so neither does a buffer.
	s, muMax := max(1, min(opt.S, opt.Iters)), smp.maxBlock()
	k := s * muMax
	blk := &lassoBlock{blockStep: newBlockStep(opt.Regularizer(), muMax),
		a: a, smp: smp, deltas: mat.NewDense(s, muMax)}
	st := &LassoStepper{blk: blk}
	blk.d = &st.Stepper
	// At s = 1 with nothing to reduce, the batch Gram is the one block's
	// own and only a moving block reads it: the block step builds it
	// with the same ColGram, after the fixed test. A reduction needs the
	// Gram in the batch, and so do the cross terms of s > 1.
	if s == 1 && red == nil {
		blk.cols = a
	} else {
		blk.gram = &st.gram
	}
	// The iterate starts at X0 (x₀ = θ₀²·y₀ + z₀ with y₀ = 0 when
	// accelerated).
	x, r := startIterate(a, b, opt.X0)
	var rec recurrence
	if opt.Accelerated {
		acc := &accLasso{
			lassoBlock: blk, q: float64(smp.numBlocks()),
			z: x, y: make([]float64, n), zt: r, yt: make([]float64, m), // y₀ = 0 and ỹ = A·y₀
			ytP: make([]float64, k), ztP: make([]float64, k),
			dCoef: make([]float64, s), scaled: make([]float64, muMax),
		}
		st.theta = smp.theta0() // Alg. 1 line 2
		st.state = [][]float64{acc.z, acc.y, acc.zt, acc.yt}
		blk.iterate, rec = acc.form, acc
	} else {
		plain := &plainLasso{lassoBlock: blk, x: x, r: r, rP: make([]float64, k)}
		st.state = [][]float64{x, r}
		blk.iterate, rec = plain.form, plain
	}
	st.init(rec, smp.r, red, obs, opt.Iters, s, opt.TrackEvery, muMax, blk.gram != nil)
	return st, nil
}

// Run iterates to the budget and evaluates the final objective. In a
// distributed solve the objective is the global one and X, being
// replicated, is complete on every rank.
func (st *LassoStepper) Run() (*LassoResult, error) {
	if err := st.run(); err != nil {
		return nil, err
	}
	obj, err := st.measure(st.blk.objective)
	if err != nil {
		return nil, err
	}
	// The objective formed the final x; forming it again would cost
	// n + m words.
	return &LassoResult{X: st.blk.formed, Objective: obj, History: st.blk.history, Iters: st.h}, nil
}

// startIterate returns x₀ = X0 (zero where X0 is nil) and its residual
// image A·x₀ − b.
func startIterate(a ColMatrix, b, x0 []float64) (x, r []float64) {
	m, n := a.Dims()
	x = make([]float64, n)
	copy(x, x0)
	r = make([]float64, m)
	a.MulVec(x, r)
	mat.Axpy(-1, b, r)
	return x, r
}

// bigEta is the step size used when a sampled block has only zero
// columns (λmax = 0): the proximal step with an effectively infinite step
// drives the block to the penalty's minimizer without producing NaNs from
// ∞·0 products.
const bigEta = 1e300

// nextTheta advances the acceleration parameter (Alg. 1 line 18):
// θ⁺ = (√(θ⁴+4θ²) − θ²)/2.
func nextTheta(theta float64) float64 {
	t2 := theta * theta
	return (math.Sqrt(t2*t2+4*t2) - t2) / 2
}
