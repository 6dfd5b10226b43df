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
// pins their recorded bits), not separate loops. The SA reformulations
// only rearrange arithmetic, so with the same seed an S > 1 run reproduces
// the classical iterate sequence up to floating-point roundoff (the
// paper's Table III: final relative objective differences at machine
// precision). The tests in this package verify that invariant directly.
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
// The HOGWILD! solvers of async.go (BackendAsync) are a different
// algorithm and keep their own implementation, on a measured margin.
// On a 16384×8192 problem of density 0.005 with 2 vCPUs, HOGWILD with 2
// workers against the multicore Stepper at the same width and the
// sequential Stepper:
//
//	Lasso, µ = 1, time to a 1e-6-relative objective:  0.074 s  0.069 s  0.046 s
//	Lasso, µ = 8, same:                               0.194 s  0.413 s  0.233 s
//	SVM-L1, wall time per iteration:                  0.37 µs  0.67 µs  0.51 µs
//
// At equal width HOGWILD beats multicore at µ = 8 and on the SVM, so the
// backend stays. Per CPU-second (HOGWILD's SVM iteration costs 0.74 µs
// of CPU) the sequential Stepper is ahead in every row, which is why
// the serving refit (internal/serve) runs it and publishes bitwise
// iterates. These are one-off figures; the benchmark's async pair is to
// confirm them.
package core
