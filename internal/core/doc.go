// Package core implements the paper's primary contribution in sequential
// form: randomized (block) coordinate descent solvers for sparse proximal
// least squares (Lasso-family) and dual linear SVM, together with their
// synchronization-avoiding (SA) reformulations.
//
// The four Lasso-side methods follow the paper's naming:
//
//	CD      — coordinate descent, µ = 1             (LassoOptions{BlockSize: 1})
//	BCD     — block coordinate descent, µ > 1
//	accCD   — accelerated CD (Nesterov / Fercoq–Richtárik), Alg. 1 with µ = 1
//	accBCD  — accelerated BCD, Alg. 1
//
// and each gains an SA variant (Alg. 2) by setting S > 1: the recurrences
// are unrolled S steps, every distributed reduction is hoisted into one
// batched (S·µ)×(S·µ) Gram computation, and the inner loop applies the
// correction sums of eqs. (3)–(5). The SVM side implements the dual
// coordinate-descent method of Hsieh et al. (Alg. 3) and SA-SVM (Alg. 4,
// eqs. 14–15) for both the L1 and L2 hinge losses.
//
// Each recurrence is written once, in the batched SA form, and runs on
// the one batch driver of stepper.go: sample S blocks, compute the local
// Gram and hoisted products, reduce, take S communication-free inner
// steps. The classical Alg. 1/3 are that driver at S = 1 (golden_test.go
// pins their recorded bits), not separate loops. A Lasso at S <= 1 with
// no Reducer has nothing to reduce and no cross term to feed, so its
// batch computes only the hoisted products, and the block step builds a
// block's Gram (the same ColGram of the same columns) only if the block
// moves: a fixed block costs its gradient and its +0 scatters. Every
// solve with a Reducer, P = 1 included, and every S > 1 solve keeps the
// batch Gram. The SA reformulations only rearrange arithmetic, so with
// the same seed an S > 1 run reproduces the classical iterate sequence up
// to floating-point roundoff (the paper's Table III: final relative
// objective differences at machine precision). The tests in this package
// verify that invariant directly.
//
// The correction sums run over what can change their bits. The SVM's
// (eq. 15) adds θ_t·b_t·G_{t,j} only for the steps t < j that moved α:
// each such step appends itself and its coefficient θ_t·b_t, formed once,
// to a per-batch list, and step j sums the list in ascending t — the
// products and additions of a loop over every t that skips θ_t = 0, so
// the bits are that loop's. Lasso's cross keeps visiting every step
// t < j, also one whose Δ_t is zero: a zero Δ_t times a non-finite Gram
// entry (±Inf or NaN, from non-finite or overflowing data) is NaN, which
// the gradient must carry, so skipping the step would change bits.
//
// This package is deliberately communication-free. The driver's seam — a
// Reducer that sums the local Gram and products over ranks, an Observer
// that watches batches, steps and measurements — is how package dist runs
// the very same loop over a rank's block of the matrix: its Reducer is
// one Allreduce, its Observer charges the costs of Table I, stamps the
// trace and checkpoints. Lasso and SVM here are the loop with both nil.
//
// There is no lock-free (HOGWILD!) schedule of the block step: it was
// kept only while it won a measurement and deleted once it stopped.
// Timed to a 1e-6 relative Lasso objective at two workers, sequential
// S = 1 beat async(2) in 10 of 10 runs at µ = 1 and at µ = 8 (11.1
// against 17.5 ms, 17.0 against 22.1 ms), its calibration raced (35 527
// and 44 408 iterations for one cell in two processes), and on SVM-L1 it
// beat the best sequential configuration by more than that
// configuration's IQR in at most 1 of 10 alternating pairs per cell,
// while using two cores. Every local execution mode is therefore
// bitwise-deterministic.
//
// BenchmarkLassoTimeToTarget prints the Lasso table (go test -run=NONE
// -bench=LassoTimeToTarget -count=10 -cpu=2 ./internal/core/). Each cell
// runs at the smallest iteration count on a 1.25× grid at which all 5
// sampling seeds reach the target; an op is one solve, the seeds in
// turn, and a cell is the median of its 10 runs on a 2-vCPU host:
//
//	Lasso: datagen.Regression 8 000 × 4 000, density 0.01, 40 true
//	features, σ = 0.05, λ = 0.1·λmax, 1e-6 relative objective
//	  µ   seq S=1   seq S=16   multicore(2) S=16   accel S=16
//	  1   7.4 ms    18.1 ms    17.2 ms             120.5 ms
//	  8   11.7 ms   49.1 ms    51.2 ms             210.2 ms
//
// The accelerated solver needs 211 758 iterations at µ = 1 and 28 421 at
// µ = 8 against the plain solver's 35 527 and 7 450: its θ-schedule has
// no restart, so at S = 16 it takes 6.7× and 4.3× the plain solver's
// time to this target (ROADMAP item 22).
//
//	SVM-L1: datagen.Classification, λ = 1, relative duality gap
//	  shape, gap target                 seq S=1    seq S=64
//	  8 000 × 4 000 (0.01), 1e-2        730 ms     763 ms
//	  8 000 × 4 000 (0.01), 1e-3        1 890 ms   1 666 ms
//	  16 384 × 8 192 (0.005), 1e-2      2 262 ms   1 819 ms
//	  16 384 × 8 192 (0.005), 1e-3      5 688 ms   4 266 ms
//
// The SVM cells were timed the same way by a program outside the repo,
// a cell being the median of the 5 seeds.
package core
