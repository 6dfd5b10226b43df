package core

import (
	"errors"
	"fmt"

	"saco/internal/mat"
	"saco/internal/rng"
	rt "saco/internal/runtime"
)

// This file implements core.BackendAsync: a HOGWILD!-style lock-free
// variant of the plain (block) coordinate-descent Lasso (Niu et al.
// 2011; cf. Zhou et al. 2021 on asynchronous lock-free optimization in
// PAPERS.md). Where the paper's SA reformulation removes synchronization
// by *rearranging* the classical iteration — provably the same sequence,
// communicated every s steps — the async backend removes it by
// *dropping* the ordering guarantee entirely: Exec.Workers solver
// workers update one shared iterate and residual through atomic element
// operations with no barriers and no locks, each sampling coordinates
// from its own RNG stream. It runs the plain Lasso only, the one solve
// where it measurably wins at its width (see doc.go).
//
// The trade is explicit and tested for: async runs are NOT
// deterministic (two runs interleave differently), but they converge to
// the same optimum, and the async convergence tests assert the final
// objective lands within tolerance of the sequential solver's. One
// anchor is exact, though: a single async worker replays the sequential
// arithmetic bit for bit, because worker 0's stream equals the
// sequential sampling stream, both take the one block step
// (blockStep.take) and every atomic kernel mirrors its plain
// counterpart's loop order. That anchor is what pins the update
// arithmetic itself as correct; the multi-worker runs then only add
// benign races.
//
// All shared mutable state lives in mat.AtomicVec (CAS-based float
// adds), so the solver is clean under the race detector — the -race CI
// gate covers it like every deterministic backend. Objective tracking
// (TrackEvery) is a coordination point by nature and is skipped; the
// objective is computed exactly on the quiescent state after the
// workers join.

// asyncColMatrix is the capability the async Lasso solver needs on top
// of ColMatrix: gradient reads and residual updates through the shared
// atomic residual. sparse.CSC implements it.
type asyncColMatrix interface {
	ColMatrix
	ColTMulVecAtomic(cols []int, v *mat.AtomicVec, dst []float64)
	ColMulAddAtomic(cols []int, coef []float64, v *mat.AtomicVec)
}

// asyncStreamSalt decorrelates the helper workers' sampling streams
// from the sequential stream that worker 0 keeps.
const asyncStreamSalt = 0xa3c59ac2b7f30e11

// asyncDampGrace is the worker count below which no step damping is
// applied. The HOGWILD! regime the async tests pin — small worker
// counts on sparse problems — tolerates undamped steps (that is the
// point of the method), so damping would only slow it down; the delay
// term matters once workers heavily outnumber what runs concurrently
// and stale reads age across whole scheduling quanta.
const asyncDampGrace = 8

// asyncDamping returns the multiplicative step-size scale 1/(1+ρ) the
// async solver applies at very high worker counts. ρ estimates the
// collision rate of concurrent lock-free updates — the expected number
// of other in-flight updates touching the rows a worker is reading — in
// the spirit of the delay analyses of HOGWILD!-style methods (Niu et
// al.; Zhou et al., PAPERS.md): with w workers each updating a block of
// µ coordinates whose columns have density f, a given residual element
// is shared with roughly w·µ·f concurrent updates; the first
// asyncDampGrace workers are exempt (see above). ρ is capped at 1, so
// the step is damped by at most half, and a single worker (or an
// unknown density) leaves the step exactly unchanged — preserving the
// 1-worker bitwise anchor.
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
// consults; sparse.CSR/CSC implement it. Matrices
// without it are treated as density-unknown (no damping).
type densityReporter interface{ Density() float64 }

func densityOf(a interface{ Dims() (int, int) }) float64 {
	if d, ok := a.(densityReporter); ok {
		return d.Density()
	}
	return 0
}

// lassoAsync is the HOGWILD! (block) coordinate-descent Lasso solver:
// the sequential solver's block step (blockStep.take) at s = 1,
// performed by w concurrent workers against a shared iterate x and
// shared residual image r = A·x − b held in atomic vectors. Each worker
// samples a block, reads the (stale) gradient through the atomic
// residual, takes the step with λmax scaled by 1/damping, and scatters
// the delta back with atomic adds. Worker k runs its share of opt.Iters
// from its own stream; stream 0 is rng.New(opt.Seed), the sequential
// solver's, so a 1-worker run replays it bit for bit. opt.X0 warm-starts
// x.
func lassoAsync(a ColMatrix, b []float64, opt LassoOptions) (*LassoResult, error) {
	if opt.Accelerated {
		return nil, errors.New("core: BackendAsync does not support the accelerated Lasso variants (acceleration needs an ordered θ-schedule); use plain CD/BCD or a deterministic backend")
	}
	ac, ok := a.(asyncColMatrix)
	if !ok {
		return nil, fmt.Errorf("core: matrix type %T does not provide atomic kernels for BackendAsync (sparse.CSC does)", a)
	}
	_, n := a.Dims()
	w := min(opt.Exec.asyncWorkers(), opt.Iters)

	x, r := startIterate(a, b, opt.X0)
	xv, rv := mat.NewAtomicVecFrom(x), mat.NewAtomicVecFrom(r)
	g := opt.Regularizer()
	scale := 1 / asyncDamping(w, opt.mu(), densityOf(a))

	streams := make([]*rng.Stream, w)
	streams[0] = rng.New(opt.Seed)
	salted := rng.New(opt.Seed ^ asyncStreamSalt)
	for k := 1; k < w; k++ {
		streams[k] = rng.New(salted.Uint64())
	}
	rt.For(w, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			smp := newBlockSampler(streams[k], &opt, n)
			muMax := smp.maxBlock()
			st := newBlockStep(g, muMax)
			st.cols = a // read-only: the plain ColGram is safe
			delta := make([]float64, muMax)
			// Iterations are dealt as evenly as possible, the first
			// opt.Iters mod w workers taking one more.
			iters := opt.Iters / w
			if k < opt.Iters%w {
				iters++
			}
			for ; iters > 0; iters-- {
				idx := smp.next()
				mu := len(idx)
				// The gradient comes first: a fixed block needs no Gram.
				ac.ColTMulVecAtomic(idx, rv, st.grad[:mu])
				xv.Gather(st.w[:mu], idx)
				st.take(idx, 0, scale, delta[:mu])
				// A fixed block's +0 Δ is scattered too: it turns a −0
				// of x into +0, as the sequential step does.
				xv.ScatterAdd(delta[:mu], idx)
				ac.ColMulAddAtomic(idx, delta[:mu], rv)
			}
		}
	})

	// The maintained residual is exact up to the roundoff of the racy
	// accumulation order; with one worker it equals the sequential
	// solver's bit for bit.
	xs := xv.Snapshot(nil)
	return &LassoResult{X: xs, Objective: LassoObjective(rv.Snapshot(nil), xs, g), Iters: opt.Iters}, nil
}
