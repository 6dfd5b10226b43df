package core

import (
	"errors"
	"fmt"

	"saco/internal/mat"
	"saco/internal/rng"
)

// This file exports the HOGWILD! solver loop as a steppable state
// machine. The batch entry points (Lasso/SVM with BackendAsync) run a
// fixed iteration budget and join; a model-serving refit loop instead
// needs to keep solver workers running indefinitely against a live
// coefficient vector while a publisher thread snapshots it — so the
// worker inner loop is factored into AsyncLasso/AsyncSVM plus
// per-worker Step methods, and async.go drives exactly these steppers.
// That identity is what keeps the exported surface pinned by the async
// backend's tests: a single worker stepping an AsyncLasso replays the
// sequential solver bit for bit.

// asyncDampGrace is the worker count below which no step damping is
// applied. The HOGWILD! regime the async tests pin — small worker
// counts on sparse problems — tolerates undamped steps (that is the
// point of the method), so damping would only slow it down; the delay
// term matters once workers heavily outnumber what runs concurrently
// and stale reads age across whole scheduling quanta.
const asyncDampGrace = 8

// asyncDamping returns the multiplicative step-size scale 1/(1+ρ) the
// async solvers apply at very high worker counts (the ROADMAP damping
// item). ρ estimates the collision rate of concurrent lock-free
// updates — the expected number of other in-flight updates touching the
// rows a worker is reading — in the spirit of the delay analyses of
// HOGWILD!-style methods (Niu et al.; Zhou et al., PAPERS.md): with w
// workers each updating a block of µ coordinates whose columns have
// density f, a given residual element is shared with roughly w·µ·f
// concurrent updates; the first asyncDampGrace workers are exempt (see
// above). ρ is capped at 1, so the step is damped by at most half, and
// a single worker (or an unknown density) leaves the step exactly
// unchanged — preserving the 1-worker bitwise anchor.
func asyncDamping(workers, mu int, density float64) float64 {
	if workers <= asyncDampGrace || density <= 0 {
		return 1
	}
	rho := float64(workers-asyncDampGrace) * float64(mu) * density
	if rho > 1 {
		rho = 1
	}
	return 1 / (1 + rho)
}

// densityReporter is the optional capability the damping heuristic
// consults; sparse.CSR/CSC and the dense views implement it. Matrices
// without it are treated as density-unknown (no damping).
type densityReporter interface{ Density() float64 }

func densityOf(a interface{ Dims() (int, int) }) float64 {
	if d, ok := a.(densityReporter); ok {
		return d.Density()
	}
	return 0
}

// AsyncLasso is the shared state of a lock-free (HOGWILD!) coordinate-
// descent Lasso solve: one atomic iterate x and one atomic residual
// image r = A·x − b, updated by any number of AsyncLassoWorker steppers
// with no locks and no barriers. Construct with NewAsyncLasso, obtain
// one worker per goroutine with Worker, and call Step in any
// interleaving; X exposes the live coefficient vector so a serving
// layer can snapshot models mid-training.
type AsyncLasso struct {
	ac      asyncColMatrix
	b       []float64
	opt     LassoOptions
	g       Regularizer
	m, n    int
	damp    float64
	xv, rv  *mat.AtomicVec
	streams []*rng.Stream
}

// NewAsyncLasso validates the problem and builds the shared async state
// for the given worker count. opt.Iters is not consumed here — the
// caller decides how many Steps each worker takes; opt.X0 seeds the
// live iterate (warm start), and opt.Seed fixes the sampling streams
// (worker 0's stream is the sequential solver's stream, the bitwise
// anchor). Accelerated variants have no async analogue and are
// rejected, as are matrices without atomic kernels.
func NewAsyncLasso(a ColMatrix, b []float64, workers int, opt LassoOptions) (*AsyncLasso, error) {
	if opt.Accelerated {
		return nil, errors.New("core: BackendAsync does not support the accelerated Lasso variants (acceleration needs an ordered θ-schedule); use plain CD/BCD or a deterministic backend")
	}
	ac, ok := a.(asyncColMatrix)
	if !ok {
		return nil, fmt.Errorf("core: matrix type %T does not provide atomic kernels for BackendAsync (sparse.CSC and sparse.DenseCols do)", a)
	}
	m, n := a.Dims()
	vopt := opt
	if vopt.Iters <= 0 {
		vopt.Iters = 1 // the stepper has no iteration budget to validate
	}
	if err := vopt.Validate(m, n, len(b)); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}

	x := make([]float64, n)
	if opt.X0 != nil {
		copy(x, opt.X0)
	}
	r := make([]float64, m)
	a.MulVec(x, r)
	mat.Axpy(-1, b, r) // r = A·x0 − b

	return &AsyncLasso{
		ac: ac, b: b, opt: opt, g: opt.Regularizer(), m: m, n: n,
		damp:    asyncDamping(workers, opt.mu(), densityOf(a)),
		xv:      mat.NewAtomicVecFrom(x),
		rv:      mat.NewAtomicVecFrom(r),
		streams: asyncStreams(opt.Seed, workers),
	}, nil
}

// SnapshotX copies the live iterate into dst (allocated when nil) with
// atomic element loads: each read is atomic but the copy is not a
// consistent cut of a vector the workers are still updating.
func (s *AsyncLasso) SnapshotX(dst []float64) []float64 { return s.xv.Snapshot(dst) }

// Objective evaluates the objective from the maintained residual. It is
// exact when the workers are quiescent; mid-flight it is an estimate
// racing the updates.
func (s *AsyncLasso) Objective() float64 {
	return LassoObjective(s.rv.Snapshot(nil), s.xv.Snapshot(nil), s.g)
}

// ObjectiveAt evaluates the exact objective of an arbitrary iterate x
// (typically a SnapshotX taken while workers run), recomputing the
// residual from scratch rather than trusting the racy maintained one.
func (s *AsyncLasso) ObjectiveAt(x []float64) float64 {
	r := make([]float64, s.m)
	s.ac.MulVec(x, r)
	mat.Axpy(-1, s.b, r)
	return LassoObjective(r, x, s.g)
}

// Worker returns stepper k (0 ≤ k < Workers). Each worker owns its
// sampling stream and scratch buffers; one worker must not be stepped
// from two goroutines, but distinct workers may run concurrently.
func (s *AsyncLasso) Worker(k int) *AsyncLassoWorker {
	smp := newBlockSampler(s.streams[k], &s.opt, s.n)
	muMax := smp.maxBlock()
	return &AsyncLassoWorker{
		s: s, smp: smp,
		gram:  mat.NewDense(muMax, muMax),
		grad:  make([]float64, muMax),
		wbuf:  make([]float64, muMax),
		gv:    make([]float64, muMax),
		delta: make([]float64, muMax),
		eig:   make([]float64, 2*muMax),
	}
}

// AsyncLassoWorker is one HOGWILD! solver worker: private sampling
// stream and scratch, shared atomic iterate and residual.
type AsyncLassoWorker struct {
	s                     *AsyncLasso
	smp                   *blockSampler
	gram                  *mat.Dense
	grad, wbuf, gv, delta []float64
	eig                   []float64 // blockLargestEig's scratch
}

// Step performs one (block) proximal coordinate update against the
// shared iterate: sample a block, read the (stale) gradient through the
// atomic residual, prox, and scatter the delta back with atomic adds.
// The step size is 1/λmax of the sampled block scaled by the collision
// damping.
func (w *AsyncLassoWorker) Step() {
	s := w.s
	idx := w.smp.next()
	mu := len(idx)
	gb := mat.NewDenseData(mu, mu, w.gram.Data[:mu*mu])
	s.ac.ColGram(idx, gb) // read-only: plain kernel is safe
	v := blockLargestEig(gb, w.eig)
	s.ac.ColTMulVecAtomic(idx, s.rv, w.grad[:mu])
	s.xv.Gather(w.wbuf[:mu], idx)
	var eta float64
	if v > 0 {
		eta = s.damp / v
		for i := 0; i < mu; i++ {
			w.gv[i] = w.wbuf[i] - eta*w.grad[i]
		}
	} else {
		eta = bigEta
		copy(w.gv[:mu], w.wbuf[:mu])
	}
	s.g.Prox(eta, w.gv[:mu])
	for i := 0; i < mu; i++ {
		w.delta[i] = w.gv[i] - w.wbuf[i]
	}
	s.xv.ScatterAdd(w.delta[:mu], idx)
	s.ac.ColMulAddAtomic(idx, w.delta[:mu], s.rv)
}

// AsyncSVM is the shared state of the lock-free asynchronous dual
// coordinate-descent SVM (PASSCoDe-Atomic): atomic dual vector α kept
// exactly in its box by CAS, atomic primal x updated by atomic adds.
type AsyncSVM struct {
	ar        asyncRowMatrix
	b         []float64
	opt       SVMOptions
	gamma, nu float64
	m, n      int
	damp      float64
	av, xv    *mat.AtomicVec
	streams   []*rng.Stream
}

// NewAsyncSVM validates the problem and builds the shared async state.
// opt.Iters is not consumed (callers budget Steps themselves);
// opt.Alpha0 warm-starts the dual, with the primal rebuilt to match.
func NewAsyncSVM(a RowMatrix, b []float64, workers int, opt SVMOptions) (*AsyncSVM, error) {
	ar, ok := a.(asyncRowMatrix)
	if !ok {
		return nil, fmt.Errorf("core: matrix type %T does not provide atomic kernels for BackendAsync (sparse.CSR and sparse.DenseRows do)", a)
	}
	m, n := a.Dims()
	vopt := opt
	if vopt.Iters <= 0 {
		vopt.Iters = 1
	}
	if err := vopt.validate(m, len(b)); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	gamma, nu := opt.gammaNu()

	alpha := make([]float64, m)
	x := make([]float64, n)
	if opt.Alpha0 != nil {
		copy(alpha, opt.Alpha0)
		for i, ai := range alpha {
			if ai != 0 {
				a.RowTAxpy(i, ai*b[i], x)
			}
		}
	}

	return &AsyncSVM{
		ar: ar, b: b, opt: opt, gamma: gamma, nu: nu, m: m, n: n,
		damp:    asyncDamping(workers, 1, densityOf(a)),
		av:      mat.NewAtomicVecFrom(alpha),
		xv:      mat.NewAtomicVecFrom(x),
		streams: asyncStreams(opt.Seed, workers),
	}, nil
}

// SnapshotX copies the live primal vector into dst (allocated when nil).
func (s *AsyncSVM) SnapshotX(dst []float64) []float64 { return s.xv.Snapshot(dst) }

// SnapshotAlpha copies the live dual vector into dst (allocated when
// nil).
func (s *AsyncSVM) SnapshotAlpha(dst []float64) []float64 { return s.av.Snapshot(dst) }

// ObjectivesAt evaluates primal, dual and gap for an (x, α) snapshot
// pair, recomputing the margins from scratch.
func (s *AsyncSVM) ObjectivesAt(x, alpha []float64) (primal, dual, gap float64) {
	margins := make([]float64, s.m)
	s.ar.MulVec(x, margins)
	return SVMObjectives(x, alpha, margins, s.b, s.opt.Lambda, s.gamma, s.opt.Loss)
}

// Worker returns stepper k (0 ≤ k < Workers); one worker per goroutine.
func (s *AsyncSVM) Worker(k int) *AsyncSVMWorker {
	return &AsyncSVMWorker{s: s, r: s.streams[k]}
}

// AsyncSVMWorker is one lock-free dual-CD worker.
type AsyncSVMWorker struct {
	s *AsyncSVM
	r *rng.Stream
}

// Step performs one projected-Newton dual coordinate update against a
// stale primal read, keeping α exactly inside its box with a CAS loop.
// The collision damping divides the step (multiplies the curvature), so
// high worker counts take proportionally smaller steps.
func (w *AsyncSVMWorker) Step() {
	s := w.s
	i := w.r.Intn(s.m)
	eta := (s.ar.RowNormSq(i) + s.gamma) / s.damp
	dot := s.ar.RowDotAtomic(i, s.xv)
	// CAS keeps α_i in [0, ν] exactly even when two workers collide on
	// the coordinate: the loser recomputes its step from the fresh dual
	// value (the margin read stays stale — that is the async part).
	var theta float64
	for {
		ai := s.av.Load(i)
		g := s.b[i]*dot - 1 + s.gamma*ai
		if gt := clip(ai-g, 0, s.nu) - ai; gt == 0 {
			theta = 0
			break
		}
		theta = clip(ai-g/eta, 0, s.nu) - ai
		if theta == 0 || s.av.CompareAndSwap(i, ai, ai+theta) {
			break
		}
	}
	if theta != 0 {
		s.ar.RowTAxpyAtomic(i, theta*s.b[i], s.xv)
	}
}
