// Package lint is the repository's static-analysis suite: it turns the
// ROADMAP's backend-matrix contract — bitwise-deterministic
// trajectories, no-torn-read serving, error-checked transports — from
// prose into machine-checked law.
//
// The suite ships five analyzers, each enforcing one invariant the
// runtime tests assert only by example:
//
//   - detfloat: multi-accumulator float64 reductions and math.FMA.
//     Reduction order defines the bitwise class; a reassociated fold
//     silently moves a kernel out of it.
//   - mapiter: range over a map in a deterministic package. Go map
//     order is deliberately random; feeding it into float accumulation,
//     ordered output, or shard/manifest serialization breaks replay.
//     Collect-keys-then-sort in the same function is recognized and
//     allowed.
//   - nondet: math/rand, time.Now, and runtime.GOMAXPROCS in solver /
//     kernel hot paths. Per-worker streams must come from internal/rng,
//     clocks from the cost model, and worker-count sizing must never
//     leak into summation order.
//   - commerr: discarded errors from internal/mpi methods (Transport
//     Send/Recv/Close and the error-returning collectives) and from
//     file Close/Sync in the streaming/IO packages and the CLIs. PR 6
//     made these error-return for a reason.
//   - atomicguard: direct access to fields documented atomic-only
//     (the serve registry's model pointer, the shard ring pointer, the
//     metrics histogram counters, the sparse CSR's row-block memo)
//     outside their audited home file; and element stores into the
//     read-only arrays of sparse.CSR and sparse.CSC outside
//     internal/sparse, whose CSRs hand one converted row block to every
//     caller.
//
// Findings are suppressed per line with
//
//	//saco:nolint <analyzer>[,<analyzer>] <reason>
//
// where the reason is mandatory: a bare suppression is itself a
// diagnostic. A trailing comment suppresses its own line; a standalone
// comment suppresses the line that follows it.
//
// # Design note: no golang.org/x/tools dependency
//
// The suite deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Report, analysistest-style fixtures with
// "want" comments) but is built entirely on the standard library, so
// it works in hermetic and offline builds with no module downloads.
// Package loading shells out to `go list -export -deps -json` and
// feeds the resulting export data to go/importer's gc importer via a
// lookup function — the same mechanism `go vet` uses — giving full,
// accurate type information for every package without compiling
// anything twice (the build cache is shared).
package lint
