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
// This package is deliberately communication-free. The driver's seam — a
// Reducer that sums the local Gram and products over ranks, an Observer
// that watches batches, steps and measurements — is how package dist runs
// the very same loop over a rank's block of the matrix: its Reducer is
// one Allreduce, its Observer charges the costs of Table I, stamps the
// trace and checkpoints. Lasso and SVM here are the loop with both nil.
// The HOGWILD! solvers of async.go are a different algorithm and keep
// their own implementation.
package core
