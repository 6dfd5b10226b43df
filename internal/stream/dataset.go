// Package stream is the out-of-core dataset layer between LIBSVM files
// on disk and the solver stack: it ingests arbitrarily large inputs in
// bounded memory by spilling contiguous row blocks ("shards") to a
// compact binary format, and exposes the result through
//
//   - BlockIterator — sequential multi-epoch passes over CSR shards
//     with a double-buffered background prefetch;
//   - Dataset.Cols() — a core.ColMatrix whose kernels stream the shards
//     and thread every accumulator through the blocks in row order, so
//     the (sequential-backend) Lasso CD/BCD trajectory is bitwise
//     identical to the in-memory sparse.CSC run;
//   - Dataset.Rows() — a core.RowMatrix for the dual-CD SVM solvers,
//     gathering sampled rows shard by shard;
//   - Dataset.RowsCSC / Dataset.ColsCSR — the dist.Source block loaders
//     of the simulated cluster, so paper-scale replicas need never
//     materialize the full CSR.
//
// A store has one encoding — fixed-width sections — and one of two
// layouts, chosen by the solver that reads it. The paper reads the
// matrix in one orientation per solver: Lasso samples columns of a
// 1D-row layout (Fig. 1), the SVM samples rows of a 1D-column one (§VI).
// So LayoutCSC is Lasso's layout (the column views decode it natively,
// with zero CSR→CSC conversions) and LayoutCSR is the SVM's; the
// dist.Source block loaders take one CSR path on either layout. A solve
// over the other layout converts each shard per load
// (CacheStats.Conversions counts them) and keeps its bits.
// BenchmarkStreamSolve is the measurement behind the rule — 16 shards of
// 1024 rows, the 2-shard cache, -cpu 1 on a 2-vCPU Intel Xeon, range of
// 3 runs of 3 solves each:
//
//	                                        csr         csc
//	Lasso (acc, µ 8, s 16, 256 it) uniform  4.2–5.2 s   2.6–4.1 s
//	                               url-like 15.6–17.2 s 10.8–13.9 s
//	SVM (s 64, 2048 it)            uniform  0.20–0.27 s 0.37–0.42 s
//	                               url-like 0.57–0.79 s 1.14–1.50 s
//
// There is one read path: a shard file is read into a transient heap
// buffer, decoded into fresh slices, and checked against its manifest
// entry, so an evicted block holds no file resource and nothing needs
// releasing but the in-flight prefetch.
//
// The memory model: peak resident matrix data ≈ defaultCacheShards (2)
// blocks — the block in use plus the prefetched one — regardless of file
// size, plus solver state (iterate vectors and the s·µ batch).
// This is the substrate the ROADMAP's "out-of-core / streaming datasets
// for cmd/sasolve" item asks for; the 1D-row partitioning mirrors the
// paper's Fig. 1 layout, with shards standing in for ranks' row blocks.
package stream

import (
	"fmt"
	"os"
	"sync"

	"saco/internal/sparse"
)

// defaultCacheShards is the loaded-shard budget of every Dataset: the
// shard being consumed plus one being prefetched.
const defaultCacheShards = 2

// ShardInfo locates one spilled row block.
type ShardInfo struct {
	// Row0 is the shard's first global row.
	Row0 int
	// Rows is the shard's row count (BlockRows except for the last).
	Rows int
	// NNZ is the shard's stored nonzero count.
	NNZ int64
}

// CacheStats is a snapshot of the shard cache's decision counters. The
// parity tests use it to prove a column solve over a CSC store never
// materialized a CSR→CSC conversion (Conversions == 0) and that a
// sequential pass never reads a shard twice (Loads == Misses).
type CacheStats struct {
	// Hits counts requests satisfied by a resident entry.
	Hits uint64
	// Misses counts requests that had to produce an entry (by draining
	// the in-flight prefetch or loading synchronously).
	Misses uint64
	// Loads counts shard files actually read and decoded (synchronous
	// loads plus prefetch loads). A sequential pass that never discards
	// a prefetch has Loads == Misses — the "prefetch never double-reads"
	// invariant.
	Loads uint64
	// Evictions counts entries dropped over the budget.
	Evictions uint64
	// PrefetchStarts counts background loads launched; PrefetchHits
	// counts misses satisfied by draining one.
	PrefetchStarts uint64
	PrefetchHits   uint64
	// Conversions counts cross-layout decodes (CSR shard asked for as
	// CSC or vice versa) — zero when views match the store layout.
	Conversions uint64
}

// Dataset is an out-of-core LIBSVM dataset: labels resident, matrix
// spilled to row-block shards under a cache directory.
type Dataset struct {
	dir       string
	m, n      int
	nnz       int64
	blockRows int
	layout    Layout
	shards    []ShardInfo

	// srcSize/srcMTime identify the source file of a BuildFile
	// ingestion (0 when built from a generic reader); see SourceMatches.
	srcSize  int64
	srcMTime int64

	// B is the label vector (resident).
	B []float64

	cache *shardCache
}

// Open loads the manifest of a dataset previously built into dir.
func Open(dir string) (*Dataset, error) { return readManifest(dir) }

// Dims returns (rows, columns).
func (d *Dataset) Dims() (int, int) { return d.m, d.n }

// Density returns NNZ/(M·N).
func (d *Dataset) Density() float64 {
	if d.m == 0 || d.n == 0 {
		return 0
	}
	return float64(d.nnz) / (float64(d.m) * float64(d.n))
}

// NumShards returns the spilled block count.
func (d *Dataset) NumShards() int { return len(d.shards) }

// BlockRows returns the rows-per-shard of the build.
func (d *Dataset) BlockRows() int { return d.blockRows }

// Layout returns the store's shard arrangement (row- or column-major).
func (d *Dataset) Layout() Layout { return d.layout }

// ShardBytes returns the total on-disk size of the shard files.
func (d *Dataset) ShardBytes() (int64, error) {
	var total int64
	for i := range d.shards {
		st, err := os.Stat(shardPath(d.dir, i))
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// CacheStats returns a snapshot of the shard cache counters.
func (d *Dataset) CacheStats() CacheStats { return d.cache.stats() }

// Close waits for the in-flight background prefetch, if any, so no
// shard file is being read once it returns — call it before removing
// the cache directory. A Dataset holds no other resource (shard files
// are opened per load, decoded blocks are plain heap slices), and it
// stays usable after Close. Closing twice is safe.
func (d *Dataset) Close() { d.cache.drainPrefetch() }

// SourceMatches reports whether path looks like the file this dataset
// was ingested from (same size and modification time). It returns true
// when the manifest recorded no source (built from a generic reader),
// in which case reuse is the caller's judgement call.
func (d *Dataset) SourceMatches(path string) bool {
	if d.srcSize == 0 && d.srcMTime == 0 {
		return true
	}
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	return st.Size() == d.srcSize && st.ModTime().UnixNano() == d.srcMTime
}

// locate maps a global row to (shard index, local row). Shards hold
// exactly blockRows rows apart from the last, so this is a division.
func (d *Dataset) locate(i int) (int, int) {
	if i < 0 || i >= d.m {
		panic(fmt.Sprintf("stream: row %d out of range [0,%d)", i, d.m))
	}
	si := i / d.blockRows
	return si, i - d.shards[si].Row0
}

// shardCache is the bounded LRU of decoded shards shared by every view
// of a Dataset, with a single-slot background prefetch for sequential
// passes. Each entry holds the shard in its stored layout; the
// cross-layout form is converted lazily per entry and counted. Entries
// handed out remain valid after eviction (eviction only drops the cache
// reference).
type shardCache struct {
	d *Dataset

	mu      sync.Mutex
	entries map[int]*cacheEntry
	tick    int64
	st      CacheStats

	pfIdx int                 // shard index of the in-flight prefetch, -1 if none
	pfCh  chan prefetchResult // buffered(1); producer sends exactly once
}

type cacheEntry struct {
	block shardBlock
	used  int64
}

// csrOf returns the entry's row-major form, converting (and caching the
// conversion) on first cross-layout use.
func (e *cacheEntry) csrOf(c *shardCache) *sparse.CSR {
	if e.block.csr == nil {
		e.block.csr = e.block.csc.ToCSR()
		c.st.Conversions++
	}
	return e.block.csr
}

// cscOf is the column-major mirror of csrOf.
func (e *cacheEntry) cscOf(c *shardCache) *sparse.CSC {
	if e.block.csc == nil {
		e.block.csc = e.block.csr.ScatterToCSC()
		c.st.Conversions++
	}
	return e.block.csc
}

type prefetchResult struct {
	idx   int
	block shardBlock
	err   error
}

func newShardCache(d *Dataset) *shardCache {
	return &shardCache{d: d, entries: make(map[int]*cacheEntry), pfIdx: -1}
}

func (c *shardCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// drainPrefetch waits for the in-flight prefetch, if any, and drops it.
func (c *shardCache) drainPrefetch() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pfIdx >= 0 {
		<-c.pfCh
		c.pfIdx = -1
	}
}

// getCSR returns shard i decoded as CSR. sequential marks accesses that
// walk shards in order: they consume the prefetched block and schedule
// the next one ((i+1) mod shards, so multi-epoch passes wrap warm).
func (c *shardCache) getCSR(i int, sequential bool) (*sparse.CSR, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.entryLocked(i)
	if err != nil {
		return nil, err
	}
	if sequential && len(c.d.shards) > 1 {
		c.prefetchLocked((i + 1) % len(c.d.shards))
	}
	return e.csrOf(c), nil
}

// getCSC returns shard i decoded as CSC — natively for a LayoutCSC
// store, converting (and caching the conversion) on a CSR store.
func (c *shardCache) getCSC(i int, sequential bool) (*sparse.CSC, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.entryLocked(i)
	if err != nil {
		return nil, err
	}
	if sequential && len(c.d.shards) > 1 {
		c.prefetchLocked((i + 1) % len(c.d.shards))
	}
	return e.cscOf(c), nil
}

// entryLocked resolves shard i: cache hit, draining the in-flight
// prefetch, or a synchronous load.
func (c *shardCache) entryLocked(i int) (*cacheEntry, error) {
	c.tick++
	if e, ok := c.entries[i]; ok {
		e.used = c.tick
		c.st.Hits++
		return e, nil
	}
	c.st.Misses++
	if c.pfIdx >= 0 {
		if c.pfIdx == i {
			// The in-flight load is exactly this shard: wait for it (the
			// producer holds no locks and sends exactly once).
			res := <-c.pfCh
			c.pfIdx = -1
			if res.err != nil {
				return nil, res.err
			}
			c.st.PrefetchHits++
			return c.insertLocked(i, res.block), nil
		}
		// An unrelated prefetch is in flight: bank it if it already
		// finished, but never block this consumer (or, through c.mu,
		// every other one) behind a disk read nobody here asked for.
		select {
		case res := <-c.pfCh:
			c.pfIdx = -1
			if res.err == nil {
				c.insertLocked(res.idx, res.block)
			}
		default:
		}
	}
	block, err := c.d.readShardFile(i)
	if err != nil {
		return nil, err // the failed read produced no decoded shard: no Loads tick
	}
	c.st.Loads++
	return c.insertLocked(i, block), nil
}

func (c *shardCache) insertLocked(i int, block shardBlock) *cacheEntry {
	e := &cacheEntry{block: block, used: c.tick}
	c.entries[i] = e
	c.evictLocked(i)
	return e
}

// evictLocked drops least-recently-used entries above the budget,
// sparing keep (the entry just produced). Victim selection tie-breaks
// on the lower shard index so the choice — and therefore the cache's
// load/eviction counters — is identical on every run even when two
// entries share a use tick; map iteration order never leaks out.
func (c *shardCache) evictLocked(keep int) {
	for len(c.entries) > defaultCacheShards {
		victim, oldest := -1, int64(1<<62)
		//saco:nolint mapiter min-selection with a deterministic (used, idx) tie-break: the result is iteration-order-invariant
		for idx, e := range c.entries {
			if idx != keep && (e.used < oldest || (e.used == oldest && idx < victim)) {
				victim, oldest = idx, e.used
			}
		}
		if victim < 0 {
			return
		}
		delete(c.entries, victim)
		c.st.Evictions++
	}
}

// prefetchLocked starts a background load of shard i if it is neither
// cached nor already in flight. One slot: sequential passes only ever
// need the next block.
func (c *shardCache) prefetchLocked(i int) {
	if c.pfIdx >= 0 {
		return
	}
	if _, ok := c.entries[i]; ok {
		return
	}
	c.pfIdx = i
	c.st.PrefetchStarts++
	c.st.Loads++
	ch := make(chan prefetchResult, 1)
	c.pfCh = ch
	go func() {
		block, err := c.d.readShardFile(i)
		ch <- prefetchResult{idx: i, block: block, err: err}
	}()
}

// forEachCSC streams every shard in row order as CSC, slicing nothing:
// f receives the shard's global row range. Used by the column views; a
// load failure is returned to the caller.
func (d *Dataset) forEachCSC(f func(info ShardInfo, a *sparse.CSC)) error {
	for i, info := range d.shards {
		a, err := d.cache.getCSC(i, true)
		if err != nil {
			return err
		}
		f(info, a)
	}
	return nil
}

// forEachCSR is forEachCSC in the row-major decoded form.
func (d *Dataset) forEachCSR(f func(info ShardInfo, a *sparse.CSR)) error {
	for i, info := range d.shards {
		a, err := d.cache.getCSR(i, true)
		if err != nil {
			return err
		}
		f(info, a)
	}
	return nil
}

// Block is one CSR row block of a sequential pass. A keeps the global
// column space; Row0 places it in the full matrix.
type Block struct {
	Row0 int
	A    *sparse.CSR
}

// BlockIterator walks the shards in row order, scanner-style:
//
//	it := d.Blocks()
//	for it.Next() {
//	    blk := it.Block()
//	    ...
//	}
//	if err := it.Err(); err != nil { ... }
//
// The underlying cache prefetches the next shard while the current one
// is consumed; Reset rewinds for another epoch (warm, because the
// prefetch wraps around).
type BlockIterator struct {
	d   *Dataset
	i   int
	cur Block
	err error
}

// Blocks returns a sequential iterator over the shards.
func (d *Dataset) Blocks() *BlockIterator { return &BlockIterator{d: d} }

// Next advances to the next block, reporting whether one is available.
func (it *BlockIterator) Next() bool {
	if it.err != nil || it.i >= len(it.d.shards) {
		return false
	}
	a, err := it.d.cache.getCSR(it.i, true)
	if err != nil {
		it.err = err
		return false
	}
	it.cur = Block{Row0: it.d.shards[it.i].Row0, A: a}
	it.i++
	return true
}

// Block returns the current block (valid after a true Next).
func (it *BlockIterator) Block() Block { return it.cur }

// Err returns the first load error, if any.
func (it *BlockIterator) Err() error { return it.err }

// Reset rewinds the iterator for another epoch.
func (it *BlockIterator) Reset() { it.i = 0; it.err = nil }

// mustLoad converts a shard-load failure inside a matrix kernel (whose
// interface has no error return) into a panic with context; the shards
// were written by this process, so failures here mean the cache
// directory was disturbed mid-solve.
func mustLoad[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("stream: shard load failed mid-solve: %v", err))
	}
	return v
}
