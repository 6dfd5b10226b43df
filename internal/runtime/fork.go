package runtime

import (
	stdruntime "runtime"
	"sync"
)

// hardCap bounds the executors of one region. It is a runaway
// backstop, not a tuning knob: useful parallelism is governed by the
// requested width and the work rule.
const hardCap = 1024

// minWork is the work rule's one threshold, in stored entries: a
// region runs inline unless it holds more, and every executor of a
// forked region gets at least this much. doc.go records the
// measurement it comes from.
const minWork = 1 << 14

// cacheLineItems is one 64-byte cache line of float64s. For-chunk sizes
// are rounded up to this granularity so chunk boundaries fall on cache
// lines (when the backing array is line-aligned, as Go's allocator gives
// large float64 slices): adjacent executors then never write the same
// line of an output vector.
const cacheLineItems = 8

// Resolve normalizes a requested width: w > 0 is taken as-is, anything
// else means runtime.GOMAXPROCS(0) at the time of the call — not at
// package init — so GOMAXPROCS changes made after import take effect.
func Resolve(w int) int {
	if w > 0 {
		return w
	}
	return stdruntime.GOMAXPROCS(0) //saco:nolint nondet width counts executors only; chunk boundaries never depend on scheduling
}

// Width is the work rule: the number of executors a region of work
// stored entries gets when w are requested (w <= 0 resolves to
// GOMAXPROCS at call time). It is 1 — run inline — unless the region
// holds more than minWork entries, and otherwise as many executors as
// keep at least minWork entries each, never more than w or hardCap.
func Width(w, work int) int {
	return max(1, min(Resolve(w), work/minWork, hardCap))
}

// For splits [0,n) into w contiguous chunks — w is the executor count
// Width returns for the region — and runs body(lo, hi) on each. The
// caller runs the first chunk and every other chunk runs on a goroutine
// of its own, joined before For returns, so nested and concurrent
// regions need nothing special; w <= 1 runs body(0, n) inline. Chunk
// sizes above one cache line are rounded up to whole lines
// (cacheLineItems), so executors writing adjacent chunks of an output
// vector never share a line. Chunk boundaries depend only on (n, w),
// never on scheduling, so any kernel that partitions independent output
// elements is bitwise identical at every width.
func For(w, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if w = min(w, n); w <= 1 {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	if chunk > cacheLineItems {
		chunk = (chunk + cacheLineItems - 1) &^ (cacheLineItems - 1)
	}
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go run(&wg, body, lo, min(lo+chunk, n))
	}
	body(0, chunk)
	wg.Wait()
}

// Ranges runs body on the consecutive half-open ranges
// [bounds[i], bounds[i+1]): the caller runs the first, every other
// non-empty range runs on a goroutine of its own, and Ranges returns
// once all have. It is the building block for load-balanced partitions
// whose chunk boundaries carry meaning — e.g. TriangleRanges for Gram
// assembly, where equal index ranges would give the first executor
// almost all the flops. Empty ranges are skipped.
func Ranges(bounds []int, body func(lo, hi int)) {
	if len(bounds) < 2 {
		return
	}
	var wg sync.WaitGroup
	for i := 1; i+1 < len(bounds); i++ {
		if lo, hi := bounds[i], bounds[i+1]; lo < hi {
			wg.Add(1)
			go run(&wg, body, lo, hi)
		}
	}
	if bounds[0] < bounds[1] {
		body(bounds[0], bounds[1])
	}
	wg.Wait()
}

// run is one helper of a forked region. Its bounds travel as
// arguments, so a spawn allocates one closure, not a closure plus a
// heap copy of each captured loop variable.
func run(wg *sync.WaitGroup, body func(lo, hi int), lo, hi int) {
	defer wg.Done()
	body(lo, hi)
}

// TriangleRanges partitions rows [0,n) of an upper-triangular loop
// (row i costs ~n−i) into at most parts ranges of roughly equal pair
// counts, returning the boundaries for Ranges. The split depends only on
// n and parts, never on scheduling, so partitioned kernels stay
// deterministic.
func TriangleRanges(n, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	bounds := make([]int, 1, parts+1)
	total := float64(n) * float64(n+1) / 2
	row := 0
	for p := 1; p < parts; p++ {
		// Row r has weight n−r; advance until this part holds ≥ total/parts.
		target := total * float64(p) / float64(parts)
		// Rows [0,r) cover n + (n−1) + ... + (n−r+1) = r·n − r(r−1)/2 pairs.
		for row < n {
			covered := float64(row)*float64(n) - float64(row)*float64(row-1)/2
			if covered >= target {
				break
			}
			row++
		}
		bounds = append(bounds, row)
	}
	bounds = append(bounds, n)
	return bounds
}
