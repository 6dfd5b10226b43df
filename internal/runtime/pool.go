package runtime

import (
	stdruntime "runtime"
	"sync/atomic"
)

// hardCap bounds the number of worker goroutines a pool will ever spawn.
// Parked workers cost only a blocked goroutine, so the cap is a runaway
// backstop, not a tuning knob; useful parallelism is still governed by
// GOMAXPROCS.
const hardCap = 1024

// Pool is a persistent shared-memory worker pool. Workers are spawned
// lazily up to the requested width (never more than hardCap), park on a
// shared channel, and live for the life of the pool. The zero value is
// not usable; construct with NewPool (the package-level For and Ranges
// run on a shared process-wide pool).
type Pool struct {
	work    chan *job
	free    chan *job
	spawned atomic.Int64
}

// NewPool returns an empty pool; workers are spawned on demand as calls
// request width.
func NewPool() *Pool {
	return &Pool{
		work: make(chan *job, hardCap),
		free: make(chan *job, 64),
	}
}

// defaultPool is the process-wide pool every package-level entry point
// dispatches to. One pool is the point: solver kernels, BLAS helpers and
// batch scoring all share the same parked workers instead of each
// spawning their own.
var defaultPool = NewPool()

// Resolve normalizes a requested width: w > 0 is taken as-is, anything
// else means runtime.GOMAXPROCS(0) at the time of the call — not at
// package init — so GOMAXPROCS changes made after import take effect.
func Resolve(w int) int {
	if w > 0 {
		return w
	}
	return stdruntime.GOMAXPROCS(0) //saco:nolint nondet width sizes the worker pool only; For chunk geometry is fixed independently of it
}

// cacheLineItems is one 64-byte cache line of float64s. For-chunk sizes
// are rounded up to this granularity so chunk boundaries fall on cache
// lines (when the backing array is line-aligned, as Go's allocator gives
// large float64 slices): adjacent executors then never write the same
// line of an output vector.
const cacheLineItems = 8

// job is a reusable parallel-region descriptor. Executors (the caller
// plus any helping workers) claim work by atomically incrementing next:
// chunk index c covers [c·chunk, min((c+1)·chunk, n)) for a For job, or
// the half-open range [bounds[c], bounds[c+1]) for a Ranges job. Each
// chunk's taken flag is the single claim authority — an executor runs a
// chunk only after winning its CompareAndSwap — which is what lets the
// affinity fast path below coexist with counter-order stealing. refs
// counts executors still holding the descriptor; the last one out
// signals done, which is also what makes recycling safe — a descriptor
// is returned to the free list only after every reference is dead.
type job struct {
	body   func(lo, hi int)
	bounds []int // nil for For jobs
	n      int   // items (For) or ranges (Ranges)
	chunk  int   // chunk size (For); unused for Ranges
	chunks int   // number of claimable chunks
	taken  []atomic.Bool
	next   atomic.Int64
	refs   atomic.Int64
	done   chan struct{}
}

// exec runs one claimed chunk.
func (j *job) exec(c int) {
	if j.bounds != nil {
		lo, hi := j.bounds[c], j.bounds[c+1]
		if lo < hi {
			j.body(lo, hi)
		}
		return
	}
	lo := c * j.chunk
	hi := lo + j.chunk
	if hi > j.n {
		hi = j.n
	}
	j.body(lo, hi)
}

// run claims and executes chunks until none remain. id is the
// executor's stable identity: 0 for the dispatching caller, the spawn
// index for pool workers, -1 for a foreign job drained during a join.
//
// An executor first tries the chunk matching its own id. Because chunk
// boundaries depend only on (w, n, minChunk) and ids are stable for the
// life of the process, repeated regions over the same data send each
// worker back to the range it touched last time — the read-mostly
// shared vectors of iterative solvers (x in repeated MulVec calls, the
// residual in gradient sweeps) stay in that worker's private cache
// instead of migrating every iteration. Remaining chunks are then
// stolen in counter order, so a stalled executor never strands work.
func (j *job) run(id int) {
	if id >= 0 && id < j.chunks && j.taken[id].CompareAndSwap(false, true) {
		j.exec(id)
	}
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		if j.taken[c].CompareAndSwap(false, true) {
			j.exec(c)
		}
	}
}

// finish drops one reference, signalling the waiter when it was the
// last.
func (j *job) finish() {
	if j.refs.Add(-1) == 0 {
		j.done <- struct{}{}
	}
}

// worker is the persistent loop every pool goroutine parks in. id is
// the 1-based spawn index; it doubles as the worker's preferred chunk
// in every job it helps with (the dispatching caller claims chunk 0).
func (p *Pool) worker(id int) {
	for j := range p.work {
		j.run(id)
		j.finish()
	}
}

// getJob takes a recycled descriptor or allocates one.
func (p *Pool) getJob() *job {
	select {
	case j := <-p.free:
		return j
	default:
		return &job{done: make(chan struct{}, 1)}
	}
}

// putJob recycles a descriptor; safe because the caller observed
// refs == 0, which happens only after every executor finished touching
// it.
func (p *Pool) putJob(j *job) {
	j.body = nil
	j.bounds = nil
	select {
	case p.free <- j:
	default:
	}
}

// ensure spawns workers until at least w exist (capped at hardCap).
func (p *Pool) ensure(w int) {
	if w > hardCap {
		w = hardCap
	}
	for {
		cur := p.spawned.Load()
		if int(cur) >= w {
			return
		}
		if p.spawned.CompareAndSwap(cur, cur+1) {
			go p.worker(int(cur) + 1)
		}
	}
}

// execute runs a prepared job with up to w executors: the caller plus
// w−1 helping workers. Helper delivery is a buffered, non-blocking send
// — if the queue is full the region simply runs narrower — and the
// caller always claims chunks inline, so dispatch itself cannot block.
//
// The join is cooperative, which is what makes nested parallelism safe.
// A caller that finished its own chunks may still hold references: its
// undelivered queue entries, or helpers mid-chunk. Blocking outright
// here can deadlock when the caller is itself a pool worker — every
// worker can be parked in this join while the queue holds the very
// entries that would release them (e.g. a region whose body runs
// multicore kernels of its own). So the waiting caller drains the
// queue instead: its own job's entries are cancelled (nobody else needs
// to consume them), other jobs' entries are executed on the spot. Each
// drained entry either resolves one of this job's references or makes
// progress on the job some other caller is waiting on, so joins ground
// out bottom-up through any nesting depth.
func (p *Pool) execute(j *job, w int) {
	j.next.Store(0)
	j.refs.Store(1)
	if cap(j.taken) >= j.chunks {
		j.taken = j.taken[:j.chunks]
		for i := range j.taken {
			j.taken[i].Store(false)
		}
	} else {
		j.taken = make([]atomic.Bool, j.chunks)
	}
	helpers := w - 1
	p.ensure(helpers)
deliver:
	for i := 0; i < helpers; i++ {
		j.refs.Add(1)
		select {
		case p.work <- j:
		default:
			// Queue full: plenty of work is already outstanding.
			j.refs.Add(-1)
			break deliver
		}
	}
	j.run(0)
	if j.refs.Add(-1) == 0 {
		p.putJob(j)
		return
	}
	for {
		select {
		case other := <-p.work:
			if other == j {
				// One of this job's own undelivered entries: every chunk is
				// already claimed (the caller's run only returns then), so
				// cancel the reference rather than re-run an empty claim loop.
				if j.refs.Add(-1) == 0 {
					p.putJob(j)
					return
				}
				continue
			}
			other.run(-1)
			other.finish()
		case <-j.done:
			p.putJob(j)
			return
		}
	}
}

// For splits [0,n) into contiguous chunks of at least minChunk items and
// runs body(lo, hi) on up to w executors from the pool (w <= 0 resolves
// to GOMAXPROCS at call time). It runs inline when the region is too
// small to split or only one executor is requested, so callers never pay
// dispatch on the tiny per-iteration blocks that dominate the solvers'
// inner loops. Chunk sizes above one cache line are rounded up to whole
// lines (cacheLineItems), so executors writing adjacent chunks of an
// output vector never share a line. Chunk boundaries still depend only
// on (w, n, minChunk), so any kernel that partitions independent output
// elements is bitwise identical at every width.
func (p *Pool) For(w, n, minChunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	w = Resolve(w)
	if w > n/minChunk {
		w = n / minChunk
	}
	if w <= 1 {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	if chunk > cacheLineItems {
		chunk = (chunk + cacheLineItems - 1) &^ (cacheLineItems - 1)
	}
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		body(0, n)
		return
	}
	j := p.getJob()
	j.body = body
	j.bounds = nil
	j.n = n
	j.chunk = chunk
	j.chunks = chunks
	p.execute(j, w)
}

// Ranges runs body on the consecutive half-open ranges
// [bounds[i], bounds[i+1]), claimed by up to len(bounds)-1 executors.
// It is the building block for load-balanced partitions whose chunk
// boundaries carry meaning — e.g. TriangleRanges for Gram assembly,
// where equal index ranges would give the first worker almost all the
// flops. Empty ranges are skipped.
func (p *Pool) Ranges(bounds []int, body func(lo, hi int)) {
	nr := len(bounds) - 1
	if nr <= 0 {
		return
	}
	if nr == 1 {
		if bounds[0] < bounds[1] {
			body(bounds[0], bounds[1])
		}
		return
	}
	j := p.getJob()
	j.body = body
	j.bounds = bounds
	j.n = nr
	j.chunks = nr
	p.execute(j, nr)
}

// For runs the region on the process-wide pool.
func For(w, n, minChunk int, body func(lo, hi int)) {
	defaultPool.For(w, n, minChunk, body)
}

// Ranges runs the partitioned region on the process-wide pool.
func Ranges(bounds []int, body func(lo, hi int)) {
	defaultPool.Ranges(bounds, body)
}

// Workers reports how many persistent workers the pool has spawned so
// far (they are created on demand, up to the largest width requested).
func (p *Pool) Workers() int { return int(p.spawned.Load()) }

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
