package core

import (
	"sync"

	"saco/internal/rng"
)

// This file implements core.BackendAsync: HOGWILD!-style lock-free
// variants of the coordinate solvers (Niu et al. 2011; cf. Zhou et al.
// 2021 on asynchronous lock-free optimization in PAPERS.md). Where the
// paper's SA reformulation removes synchronization by *rearranging* the
// classical iteration — provably the same sequence, communicated every
// s steps — the async backend removes it by *dropping* the ordering
// guarantee entirely: Exec.Workers solver workers update one shared
// iterate through atomic element operations with no barriers and no
// locks, each sampling coordinates from its own RNG stream.
//
// The trade is explicit and tested for: async runs are NOT
// deterministic (two runs interleave differently), but they converge to
// the same optimum, and the async convergence tests assert the final
// objective lands within tolerance of the sequential solver's. One
// anchor is exact, though: a single async worker replays the sequential
// arithmetic bit for bit, because worker 0's stream equals the
// sequential sampling stream and every atomic kernel mirrors its plain
// counterpart's loop order. That anchor is what pins the update
// arithmetic itself as correct; the multi-worker runs then only add
// benign races.
//
// All shared mutable state lives in mat.AtomicVec (CAS-based float
// adds), so the solvers are clean under the race detector — the -race
// CI gate covers them like every deterministic backend. Objective
// tracking (TrackEvery), early stopping (Tol) and warm-start history
// are coordination points by nature; the async solvers skip History and
// Tol and document it, computing exact objectives on the quiescent
// state after the workers join.

// asyncStreamSalt decorrelates the helper workers' sampling streams
// from the sequential stream that worker 0 keeps.
const asyncStreamSalt = 0xa3c59ac2b7f30e11

// asyncStreams returns w per-worker sampling streams. Stream 0 is
// rng.New(seed) — exactly the sequential solver's stream, giving the
// single-worker equivalence anchor — and the rest are forked from a
// salted generator so no two workers correlate.
func asyncStreams(seed uint64, w int) []*rng.Stream {
	streams := make([]*rng.Stream, w)
	streams[0] = rng.New(seed)
	src := rng.New(seed ^ asyncStreamSalt)
	for k := 1; k < w; k++ {
		streams[k] = rng.New(src.Uint64())
	}
	return streams
}

// splitIters deals total iterations to w workers as evenly as possible.
func splitIters(total, w, k int) int {
	share := total / w
	if k < total%w {
		share++
	}
	return share
}

// lassoAsync is the HOGWILD! (block) coordinate-descent Lasso solver:
// the same proximal step as plainLasso at s = 1, but performed by
// concurrent workers against a shared iterate x and shared residual image
// r = A·x − b held in atomic vectors. Stale gradient reads and
// interleaved updates replace the sequential ordering; the step
// (1/λmax of the sampled block) is scaled by the collision damping of
// asyncDamping at high worker counts. The worker loop itself lives in
// the asyncLasso stepper (asyncstate.go); this entry runs a fixed budget
// and joins.
func lassoAsync(a ColMatrix, b []float64, opt LassoOptions) (*LassoResult, error) {
	w := opt.Exec.asyncWorkers()
	if w > opt.Iters {
		w = opt.Iters
	}
	st, err := newAsyncLasso(a, b, w, opt)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(wk *asyncLassoWorker, iters int) {
			defer wg.Done()
			for h := 0; h < iters; h++ {
				wk.Step()
			}
		}(st.Worker(k), splitIters(opt.Iters, w, k))
	}
	wg.Wait()

	res := &LassoResult{Iters: opt.Iters}
	res.X = st.SnapshotX(nil)
	// The maintained residual is exact up to the roundoff of the racy
	// accumulation order; with one worker it equals the sequential
	// solver's bit for bit.
	res.Objective = st.Objective()
	return res, nil
}

// svmAsync is the lock-free asynchronous dual coordinate-descent SVM
// (the PASSCoDe-Atomic scheme of Hsieh et al. applied to Alg. 3): each
// worker samples rows from its own stream and performs the projected-
// Newton dual step against a stale primal read, with the dual variable
// kept exactly inside its box by a compare-and-swap and the primal
// updated by atomic adds.
func svmAsync(a RowMatrix, b []float64, opt SVMOptions) (*SVMResult, error) {
	w := opt.Exec.asyncWorkers()
	if w > opt.Iters {
		w = opt.Iters
	}
	st, err := newAsyncSVM(a, b, w, opt)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(wk *asyncSVMWorker, iters int) {
			defer wg.Done()
			for h := 0; h < iters; h++ {
				wk.Step()
			}
		}(st.Worker(k), splitIters(opt.Iters, w, k))
	}
	wg.Wait()

	res := &SVMResult{Iters: opt.Iters}
	res.X = st.SnapshotX(nil)
	res.Alpha = st.SnapshotAlpha(nil)
	res.Primal, res.Dual, res.Gap = st.ObjectivesAt(res.X, res.Alpha)
	return res, nil
}
