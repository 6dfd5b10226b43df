// Package simd holds MergeDot, the sorted two-pointer merge dot of two
// sparse vectors, and the Kernels/Active shim the repo benchmark reads
// it through. MergeDot has two roles, both as a definition rather than
// a hot path:
//
//   - The Gram's pairwise definition. Every Gram entry package sparse
//     assembles (sparse/gram.go) has the bits MergeDot gives for the
//     two columns or rows; FuzzGram and TestGramMatchesPairwiseMerge
//     check that.
//   - Score's oracle. serve.Model.Score looks row entries up by
//     position and must add the products in MergeDot's order;
//     TestScoreMatchesMergeDot and FuzzScore check that.
//
// The BLAS-1 loops are in the packages that call them: Dot, Axpy,
// Scal, Nrm2Sq and ScatterAxpy in package mat, the gather loops and the
// CSR SpMV row loop in package sparse. This package remains only
// because the benchmark pins MergeDot and prints the shim's name; ROADMAP
// item 2's refresh lets it go.
package simd
