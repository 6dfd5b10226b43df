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
// Streaming v2 adds three orthogonal knobs, all preserving the bitwise
// contract:
//
//   - Layout: shards spill row-major (LayoutCSR) or column-major
//     (LayoutCSC). A CSC store is decoded natively by the column views,
//     so streamed Lasso runs perform zero CSR→CSC conversions
//     (CacheStats.Conversions counts the cross-layout loads that remain).
//   - Codec: CodecRaw fixed-width sections, or CodecDelta varint
//     segment lengths / index deltas / byte-reversed value bits —
//     roughly half the shard bytes on url-like skewed inputs, exact
//     round-trip either way.
//   - ReadMode: ReadCopy loads shard files through a transient heap
//     buffer; ReadMmap maps them and decodes in place, serving the raw
//     vals section as a zero-copy []float64 where alignment and
//     endianness allow. Mmap falls back to copy reads gracefully
//     (unsupported platform or a failing map), and both modes drive the
//     LRU/prefetch cache through identical decisions — CacheStats is
//     the proof hook the parity tests use.
//
// The memory model: peak resident matrix data ≈ CacheShards blocks
// (default 2: the block in use plus the prefetched one) regardless of
// file size, plus solver state (iterate vectors and the s·µ batch).
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

// defaultCacheShards is the default loaded-shard budget: the shard being
// consumed plus one being prefetched.
const defaultCacheShards = 2

// ReadMode selects how shard bytes reach the decoder.
type ReadMode uint8

const (
	// ReadCopy reads each shard file into a transient buffer (the
	// historical path; works everywhere).
	ReadCopy ReadMode = iota
	// ReadMmap maps shard files and decodes from the mapping, serving
	// raw-codec vals sections zero-copy. Falls back to ReadCopy when the
	// platform has no mmap or a map fails (CacheStats.MmapFallbacks).
	ReadMmap
)

// String names the read mode for flags and reports.
func (m ReadMode) String() string {
	if m == ReadMmap {
		return "mmap"
	}
	return "copy"
}

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
// parity tests use it two ways: Conversions == 0 proves a column solve
// over a CSC store never materialized a CSR→CSC conversion, and equal
// snapshots across ReadCopy and ReadMmap runs prove the two read paths
// take identical cache decisions.
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
	// MmapFallbacks counts shard loads that wanted ReadMmap but fell
	// back to a copy read.
	MmapFallbacks uint64
}

// Dataset is an out-of-core LIBSVM dataset: labels resident, matrix
// spilled to row-block shards under a cache directory.
type Dataset struct {
	dir       string
	m, n      int
	nnz       int64
	blockRows int
	layout    Layout
	codec     Codec
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

// NNZ returns the stored nonzero count.
func (d *Dataset) NNZ() int64 { return d.nnz }

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

// Dir returns the cache directory holding the shards and manifest.
func (d *Dataset) Dir() string { return d.dir }

// Layout returns the store's shard arrangement (row- or column-major).
func (d *Dataset) Layout() Layout { return d.layout }

// Codec returns the store's shard section encoding.
func (d *Dataset) Codec() Codec { return d.codec }

// ShardBytes returns the total on-disk size of the shard files — the
// number the delta codec roughly halves on url-like inputs.
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

// SetReadMode selects copy or mmap shard reads for every view of this
// dataset. Switching modes does not invalidate resident entries; it
// applies to subsequent loads. ReadMmap on a platform without mmap
// support degrades to copy reads per shard (counted in CacheStats).
func (d *Dataset) SetReadMode(m ReadMode) { d.cache.setReadMode(m) }

// ReadMode returns the configured read mode.
func (d *Dataset) ReadMode() ReadMode { return d.cache.readMode() }

// CacheStats returns a snapshot of the shard cache counters.
func (d *Dataset) CacheStats() CacheStats { return d.cache.stats() }

// Close releases every retained shard mapping. Views handed out earlier
// may alias mapped memory (the zero-copy vals path), so Close must only
// run once no decoded block is in use; a Dataset is otherwise free of
// resources (shard files are opened per load). Closing twice is safe.
func (d *Dataset) Close() error { return d.cache.close() }

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

// SetCacheShards sets the loaded-shard budget of the views (minimum 2:
// one consumed, one prefetched). Larger budgets help the row views,
// whose sampled accesses are not sequential.
func (d *Dataset) SetCacheShards(k int) { d.cache.setMax(k) }

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
// reference); retained mmap regions live until Dataset.Close.
type shardCache struct {
	d *Dataset

	mu      sync.Mutex
	max     int
	mode    ReadMode
	entries map[int]*cacheEntry
	tick    int64
	st      CacheStats

	pfIdx int                 // shard index of the in-flight prefetch, -1 if none
	pfCh  chan prefetchResult // buffered(1); producer sends exactly once

	// regions are the retained mmap regions of zero-copy decodes,
	// released at Close. Eviction cannot release them: handed-out blocks
	// alias the mapped vals.
	regions [][]byte
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
		e.block.csc = e.block.csr.ToCSC()
		c.st.Conversions++
	}
	return e.block.csc
}

type prefetchResult struct {
	idx    int
	block  shardBlock
	region []byte // retained mapping, nil unless the decode aliased it
	err    error
}

func newShardCache(d *Dataset, max int) *shardCache {
	return &shardCache{d: d, max: max, entries: make(map[int]*cacheEntry), pfIdx: -1}
}

func (c *shardCache) setMax(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < defaultCacheShards {
		k = defaultCacheShards
	}
	c.max = k
	c.evictLocked(-1)
}

func (c *shardCache) setReadMode(m ReadMode) {
	c.mu.Lock()
	c.mode = m
	c.mu.Unlock()
}

func (c *shardCache) readMode() ReadMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

func (c *shardCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// close drains any in-flight prefetch and unmaps retained regions.
func (c *shardCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pfIdx >= 0 {
		res := <-c.pfCh
		c.pfIdx = -1
		if res.region != nil {
			c.regions = append(c.regions, res.region)
		}
	}
	clear(c.entries)
	var first error
	for _, r := range c.regions {
		if err := munmapFile(r); err != nil && first == nil {
			first = err
		}
	}
	c.regions = nil
	return first
}

// loadShard reads and decodes shard i under the given read mode. It
// touches no cache state (prefetch goroutines call it without c.mu);
// counter updates for fallbacks are deferred to the caller via the
// returned region/fallback flags.
func (c *shardCache) loadShard(i int, mode ReadMode) (block shardBlock, region []byte, fellBack bool, err error) {
	path := shardPath(c.d.dir, i)
	if mode == ReadMmap {
		data, merr := mmapFile(path)
		if merr == nil {
			block, refs, derr := decodeShard(data, c.d.n, true)
			if derr != nil {
				munmapFile(data)
				return shardBlock{}, nil, false, fmt.Errorf("stream: %s: %v", path, derr)
			}
			if refs {
				return block, data, false, nil
			}
			// Nothing aliases the mapping (delta codec, or an empty
			// shard): release it immediately.
			munmapFile(data)
			return block, nil, false, nil
		}
		// No mapping — the platform has none, or a real mmap failure on
		// one that does: read a copy, and report the fallback so the
		// caller counts it where operators can see the degradation.
		block, err := readShardFile(path, c.d.n)
		return block, nil, true, err
	}
	block, err = readShardFile(path, c.d.n)
	return block, nil, false, err
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
			c.bankRegionLocked(res.region)
			return c.insertLocked(i, res.block), nil
		}
		// An unrelated prefetch is in flight: bank it if it already
		// finished, but never block this consumer (or, through c.mu,
		// every other one) behind a disk read nobody here asked for.
		select {
		case res := <-c.pfCh:
			c.pfIdx = -1
			if res.err == nil {
				c.bankRegionLocked(res.region)
				c.insertLocked(res.idx, res.block)
			}
		default:
		}
	}
	c.st.Loads++
	block, region, fellBack, err := c.loadShard(i, c.mode)
	if err != nil {
		c.st.Loads-- // the failed read produced no decoded shard
		return nil, err
	}
	if fellBack {
		c.st.MmapFallbacks++
	}
	c.bankRegionLocked(region)
	return c.insertLocked(i, block), nil
}

// bankRegionLocked retains a mapping that a decoded block aliases.
func (c *shardCache) bankRegionLocked(region []byte) {
	if region != nil {
		c.regions = append(c.regions, region)
	}
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
	for len(c.entries) > c.max {
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
	mode := c.mode
	go func() {
		block, region, _, err := c.loadShard(i, mode)
		ch <- prefetchResult{idx: i, block: block, region: region, err: err}
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
