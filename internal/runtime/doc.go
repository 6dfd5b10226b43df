// Package runtime is the shared-memory execution layer of the
// repository: a chunked fork-join API (For, Ranges), the work rule
// (Width) that decides whether a region forks at all, and the
// deterministic partitioners the kernels above it are built on.
//
// A region forks its own helpers and joins them before it returns: the
// caller runs the first chunk and every other chunk runs on a goroutine
// of its own. Nothing is kept between calls — no parked workers, no job
// descriptors — so nested and concurrent regions (hybrid rank×thread
// runs, concurrent solves on one matrix) need no special code. A forked
// region allocates the join and one goroutine closure per helper.
//
// The work rule is one constant. A region of work stored entries gets
// min(w, work/minWork, 1024) executors and runs inline when that is 1,
// so every executor of a forked region carries at least minWork =
// 2¹⁴ entries. The callers pass the entries they will touch (a Gram
// adds its k(k+1)/2 output pairs), never a chunk size of their own.
// The constant comes from two measurements on a 2-vCPU x86-64 host (Go
// 1.24, go test -bench): an empty region forked at width 2
// (BenchmarkForkEmpty) costs 0.92 µs and 2 allocations (64 B), and the
// cheapest kernel step, a cached gather dot (CSC.ColTMulVec over
// columns of 82 entries, four columns a group; sparse's
// BenchmarkColTMulVec, µ = 8 warm and 400 columns inline), costs
// 0.6–0.75 ns per entry. At 2¹⁴ entries an executor's share is about
// 11 µs, so the fork costs at most ~8 % of it, while the solvers'
// per-iteration blocks (µ = 8 operands of ~80 entries) stay far below
// the threshold and run inline. The same host showed that forking pays
// less than the arithmetic suggests: a 400-column ColTMulVec (32 800
// entries, two executors) took 25.5–26.8 µs against 22.6–24.1 µs
// inline, because memory-bound gathers do not scale on its two vCPUs;
// whether a larger threshold earns its width elsewhere
// is a question for a width sweep, not for this constant.
//
// The determinism contract: a parallel kernel partitions only
// independent output elements across executors and leaves each
// element's summation order exactly as in the sequential code. Chunk
// boundaries depend only on the region's size and executor count,
// never on scheduling, and which goroutine executes which chunk cannot
// affect any result. Multicore kernels are therefore bitwise identical
// to their sequential runs at every width — the shared-memory analogue
// of the paper's "same iterate sequence up to floating-point roundoff"
// claim, and the property internal/core's backend-equivalence tests
// pin end to end. The work rule changes only how many executors run,
// so it cannot move a bit either.
//
// Widths are resolved at call time: a width of 0 means
// runtime.GOMAXPROCS(0) as of the call (Resolve, the one place the
// hot-path packages read it), so GOMAXPROCS changes after package init
// take effect.
//
// The simulated distributed runtime (internal/mpi, internal/dist) runs
// one goroutine per rank; its ranks fork kernels only when a per-rank
// core budget is configured (hybrid rank×thread runs), and its
// reductions always follow the binomial-tree order of the modeled
// collectives, never this package's.
package runtime
