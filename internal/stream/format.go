package stream

import (
	"fmt"
	"os"
	"path/filepath"

	"saco/internal/sparse"
	"saco/internal/wire"
)

// On-disk layout, version 3: all fixed-width fields little-endian, every
// file encoded and decoded through internal/wire and sealed with a
// CRC-32 (IEEE) trailer that is verified before a field is decoded.
//
// Shard file (shard-NNNNN.bin) — one contiguous row block, stored either
// row-major (CSR) or column-major (CSC):
//
//	magic    [8]byte  "SACOSHv3"
//	layout   uint8    0 = CSR, 1 = CSC
//	codec    uint8    always 0 (raw sections); a 1 marks the retired
//	                  delta-varint encoding, which is refused
//	rows     uint32   block row count
//	cols     uint32   stored column width (CSC only; the decoder pads the
//	                  column pointer out to the dataset width, so shards
//	                  never spend bytes on trailing empty columns)
//	nnz      uint64
//	ptr      section  (segments+1) × uint64 offsets
//	idx      section  nnz × uint32
//	vals     section  nnz × float64 IEEE-754 bits
//	crc      uint32   CRC-32 of every preceding byte
//
// A "segment" is a row for CSR shards and a column for CSC shards; its
// idx entries are column indices (CSR) or block-local row indices (CSC).
// The sections follow each other with no length fields: the counts in
// the header delimit them, and the image must end exactly at the trailer.
//
// Manifest file (manifest.bin), version 3 — dataset metadata plus the
// label vector (labels stay resident; at paper scale they are ~20 MB vs
// ~4 GB of matrix data):
//
//	magic     [8]byte  "SACOSMv3"
//	m, n      uint64
//	nnz       uint64
//	blockRows uint32
//	nshards   uint32
//	srcSize   uint64             source file size (0 = unrecorded)
//	srcMTime  int64              source mtime, unix nanos (0 = unrecorded)
//	layout    uint8
//	codec     uint8              always 0, as in the shards
//	shards    nshards × { rows uint32, nnz uint64 }
//	labels    m × float64
//	crc       uint32             CRC-32 of every preceding byte
//
// Column indices are stored in (at most) 32 bits, which caps the
// feature space at 2³²−1 — 1000× the paper's widest dataset.
//
// The version-1 and version-2 encodings have no read path; badMagic
// refuses them by name, and layoutAndCodec refuses a delta-coded v3 store.
const (
	shardMagic    = "SACOSHv3"
	manifestMagic = "SACOSMv3"
	manifestName  = "manifest.bin"

	// MaxFeatures is the widest column space the shard encoding holds.
	MaxFeatures = 1<<32 - 1
)

// Layout selects how a shard store arranges each row block on disk. The
// solver that reads the store decides: a layout is worth choosing only
// per task (see the package doc for the measurement).
type Layout uint8

const (
	// LayoutCSR spills row-major shards: row-ptr / col-idx / val. Row
	// views (the SVM access pattern) decode it natively, column views
	// convert per load.
	LayoutCSR Layout = iota
	// LayoutCSC spills column-major shards: col-ptr / row-idx / val.
	// Column views (the Lasso access pattern) decode it natively with
	// zero CSR→CSC conversions.
	LayoutCSC
)

// String names the layout for reports.
func (l Layout) String() string {
	if l == LayoutCSC {
		return "csc"
	}
	return "csr"
}

// shardPath names shard i inside the dataset directory.
func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%05d.bin", i))
}

// shardBlock is one decoded (or to-be-encoded) row block in whichever
// arrangement the store's layout dictates: exactly one of csr/csc is
// non-nil.
type shardBlock struct {
	csr *sparse.CSR
	csc *sparse.CSC
}

// encodeShard serializes one row block. For LayoutCSR the block arrives
// as CSR arrays; for LayoutCSC the caller transposes first (cscFromBlock).
// The encoder builds the whole shard in one buffer — the block is
// already resident, and shard sizes are bounded by BlockRows.
func encodeShard(layout Layout, block shardBlock) []byte {
	var (
		segPtr []int // segment offsets (rowPtr or colPtr)
		idx    []int // colIdx or rowIdx
		vals   []float64
		rows   int
		cols   int
	)
	if layout == LayoutCSC {
		a := block.csc
		segPtr, idx, vals, rows, cols = a.ColPtr, a.RowIdx, a.Val, a.M, a.N
	} else {
		a := block.csr
		segPtr, idx, vals, rows = a.RowPtr, a.ColIdx, a.Val, a.M
	}

	// 26-byte header, sections, trailer.
	w := wire.Writer{B: make([]byte, 0, 26+8*len(segPtr)+12*len(vals)+4)}
	w.Bytes([]byte(shardMagic))
	w.U8(uint8(layout))
	w.U8(0) // codec: raw
	w.U32(uint32(rows))
	w.U32(uint32(cols))
	w.U64(uint64(len(vals)))
	for _, v := range segPtr {
		w.U64(uint64(v))
	}
	for _, v := range idx {
		w.U32(uint32(v))
	}
	w.F64s(vals)
	return wire.CRC32.Seal(w.B)
}

// writeShard spills one encoded row block through the durable seam:
// a full disk cannot masquerade as a successful build, and a crash never
// leaves a torn shard under the final name.
func writeShard(path string, layout Layout, block shardBlock) error {
	return wire.WriteFile(path, encodeShard(layout, block))
}

// cscFromBlock transposes one CSR row block into block-local CSC with the
// narrowest column space covering the block (the decoder pads back out to
// the dataset width). This is the same counting transpose as
// sparse.CSR.ToCSC, so an at-ingest CSC store is bit-identical to one
// produced by transposing a CSR store.
func cscFromBlock(rowPtr, colIdx []int, vals []float64) *sparse.CSC {
	width := 0
	for _, c := range colIdx {
		if c >= width {
			width = c + 1
		}
	}
	rows := len(rowPtr) - 1
	a := sparse.CSR{M: rows, N: width, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
	return a.ScatterToCSC()
}

// layoutAndCodec reads the two format bytes every shard and manifest
// header carries. The codec byte of a store this package writes is 0;
// a 1 is a store from the retired delta-varint codec, refused with the
// migration, like an older version's magic.
func layoutAndCodec(r *wire.Reader) Layout {
	layout, codec := Layout(r.U8("layout")), r.U8("codec")
	switch {
	case codec == 1:
		r.Fail("codec", "delta-coded store: delete the cache directory and re-ingest")
	case layout > LayoutCSC || codec != 0:
		r.Fail("layout", "unknown layout/codec %d/%d", layout, codec)
	}
	return layout
}

// decodeShard decodes one shard file. n is the dataset's global column
// count (shards do not record it). Exactly one of the returned blocks is
// non-nil, matching the shard's stored layout; it shares no memory with
// data. Every structural invariant is re-validated because the bytes
// come from disk.
func decodeShard(data []byte, n int) (shardBlock, error) {
	// Magic before the checksum: an older shard fails the trailer and
	// must still be refused by name.
	if len(data) >= 8 && string(data[:8]) != shardMagic {
		return shardBlock{}, fmt.Errorf("stream: %v", badMagic("shard", data[:8]))
	}
	body, err := wire.CRC32.Open("shard", data)
	if err != nil {
		return shardBlock{}, err
	}
	r := wire.NewReader("shard", body)
	r.Bytes("magic", len(shardMagic))
	layout := layoutAndCodec(&r)
	rows, cols, nnz64 := int(r.U32("rows")), int(r.U32("cols")), r.U64("nnz")
	segs, ptrLen := rows, rows+1
	if layout == LayoutCSC {
		// CSC column pointers are padded out to the dataset width, so
		// trailing empty columns cost no disk bytes.
		segs, ptrLen = cols, n+1
		if cols > n {
			r.Fail("cols", "%d columns stored, dataset has %d", cols, n)
		}
	}
	// Bound the counts by the bytes left before allocating from them: a
	// segment costs 8 bytes and an entry 12 (index and value).
	r.Count("segments", uint64(segs), 8)
	nnz := r.Count("nnz", nnz64, 12)
	if err := r.Err(); err != nil {
		return shardBlock{}, err
	}

	// ptr section → segment offsets, each within [0, nnz]; NewCSR and
	// NewCSC check that they are monotone and end at nnz.
	segPtr := make([]int, ptrLen)
	if r.U64("ptr") != 0 {
		r.Fail("ptr", "does not start at 0")
	}
	for s := 1; s <= segs; s++ {
		v := r.U64("ptr")
		if v > uint64(nnz) {
			r.Fail("ptr", "segment %d ends past nnz %d", s-1, nnz)
			break
		}
		segPtr[s] = int(v)
	}
	for s := segs; s < ptrLen-1; s++ {
		segPtr[s+1] = segPtr[s]
	}

	idx := make([]int, nnz)
	for k := range idx {
		idx[k] = int(r.U32("idx"))
	}
	vals := make([]float64, nnz)
	r.F64s("vals", vals)
	if err := r.Done(); err != nil {
		return shardBlock{}, err
	}

	if layout == LayoutCSC {
		csc, err := sparse.NewCSC(rows, n, segPtr, idx, vals)
		if err != nil {
			return shardBlock{}, err
		}
		return shardBlock{csc: csc}, nil
	}
	csr, err := sparse.NewCSR(rows, n, segPtr, idx, vals)
	if err != nil {
		return shardBlock{}, err
	}
	return shardBlock{csr: csr}, nil
}

// badMagic is the error for a file that does not start with the magic
// its reader expects. The older store encodings ("SACOSHv1"/"SACOSHv2"
// shards, "SACOSMv1"/"SACOSMv2" manifests) are named, with the
// migration: a shard store is a cache of its LIBSVM source, so it is
// rebuilt, not converted.
func badMagic(what string, magic []byte) error {
	switch m := string(magic); m {
	case "SACOSHv1", "SACOSMv1", "SACOSHv2", "SACOSMv2":
		return fmt.Errorf("version-%c %s (%s) is no longer readable: delete the cache directory and re-ingest the LIBSVM source", m[7], what, m)
	}
	return fmt.Errorf("bad %s magic %q", what, magic)
}

// readShardFile is the one shard load: the file bytes pass through a
// transient heap buffer that is released as soon as the sections are
// decoded, and the block must match shard i's manifest entry. It touches
// no cache state, so prefetch goroutines call it without the cache lock.
func (d *Dataset) readShardFile(i int) (shardBlock, error) {
	path := shardPath(d.dir, i)
	data, err := os.ReadFile(path)
	if err != nil {
		return shardBlock{}, err
	}
	block, err := decodeShard(data, d.n)
	if err != nil {
		return shardBlock{}, fmt.Errorf("stream: %s: %w", path, err)
	}
	got := ShardInfo{Row0: d.shards[i].Row0}
	if block.csc != nil {
		got.Rows, got.NNZ = block.csc.M, int64(block.csc.NNZ())
	} else {
		got.Rows, got.NNZ = block.csr.M, int64(block.csr.NNZ())
	}
	if want := d.shards[i]; got != want {
		return shardBlock{}, &shardMismatchError{path, fmt.Sprintf("%d rows / %d nonzeros, its manifest entry says %d / %d",
			got.Rows, got.NNZ, want.Rows, want.NNZ)}
	}
	return block, nil
}

// shardMismatchError reports a shard file that decodes cleanly but does
// not hold the rows or nonzeros its manifest entry records — a shard
// written by another build than the manifest's. Serving it would index
// past the block or mix two datasets, so the load is refused.
type shardMismatchError struct{ path, msg string }

func (e *shardMismatchError) Error() string {
	return "stream: " + e.path + " holds " + e.msg + ": delete the cache directory and re-ingest"
}

// startStore creates a store directory and removes any manifest.bin in
// it before the first shard spills. A rebuild overwrites shards in
// place, so a build that fails partway must leave no manifest rather
// than an older one over a mix of new and old shards.
func startStore(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// writeManifest publishes the dataset metadata and labels. It is the last
// write of a build and goes through the durable seam; with startStore's
// removal first, a directory holds either no manifest.bin (the build did
// not finish) or a whole one describing exactly the shards beside it.
func writeManifest(d *Dataset) error {
	w := wire.Writer{B: make([]byte, 0, 58+12*len(d.shards)+8*len(d.B)+4)}
	w.Bytes([]byte(manifestMagic))
	w.U64(uint64(d.m))
	w.U64(uint64(d.n))
	w.U64(uint64(d.nnz))
	w.U32(uint32(d.blockRows))
	w.U32(uint32(len(d.shards)))
	w.U64(uint64(d.srcSize))
	w.U64(uint64(d.srcMTime))
	w.U8(uint8(d.layout))
	w.U8(0) // codec: raw
	for _, sh := range d.shards {
		w.U32(uint32(sh.Rows))
		w.U64(uint64(sh.NNZ))
	}
	w.F64s(d.B)
	return wire.WriteFile(filepath.Join(d.dir, manifestName), wire.CRC32.Seal(w.B))
}

// readManifest loads the metadata of a previously built dataset.
func readManifest(dir string) (*Dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(dir, data)
}

// decodeManifest parses a manifest image. The bytes come from disk, so
// the header is not trusted: the shard count and the row count are
// bounded by the bytes left before anything is allocated from them, the
// image must end exactly at its trailer, and the shard table must be the
// even split Dataset.locate divides by.
func decodeManifest(dir string, data []byte) (*Dataset, error) {
	// Magic before the checksum, as for shards.
	if len(data) >= 8 && string(data[:8]) != manifestMagic {
		return nil, fmt.Errorf("stream: %s: %v", dir, badMagic("manifest", data[:8]))
	}
	body, err := wire.CRC32.Open("manifest", data)
	if err != nil {
		return nil, fmt.Errorf("stream: %s: %w", dir, err)
	}
	r := wire.NewReader("manifest", body)
	r.Bytes("magic", len(manifestMagic))
	m, n, nnz := r.U64("m"), r.U64("n"), r.U64("nnz")
	blockRows, nshards := int(r.U32("blockRows")), r.U32("nshards")
	d := &Dataset{
		dir: dir, n: int(n), nnz: int64(nnz), blockRows: blockRows,
		srcSize:  int64(r.U64("srcSize")),
		srcMTime: int64(r.U64("srcMTime")),
		layout:   layoutAndCodec(&r),
	}
	if n > MaxFeatures {
		r.Fail("n", "%d features exceed the shard format's cap", n)
	}
	if blockRows < 1 {
		r.Fail("blockRows", "is 0")
	}
	d.shards = make([]ShardInfo, r.Count("nshards", uint64(nshards), 12))
	// nnzLeft counts the header's nonzeros down shard by shard, so the
	// table's sum is checked without ever being formed (no overflow).
	row0, nnzLeft := 0, nnz
	for i := range d.shards {
		rows, snnz := int(r.U32("shard rows")), r.U64("shard nnz")
		if last := i == len(d.shards)-1; rows < 1 || rows > blockRows || (!last && rows != blockRows) || snnz > nnzLeft {
			r.Fail("shards", "shard %d of %d holds %d rows / %d nonzeros; blockRows is %d, %d of the header's nonzeros remain",
				i, nshards, rows, snnz, blockRows, nnzLeft)
			break
		}
		nnzLeft -= snnz
		d.shards[i] = ShardInfo{Row0: row0, Rows: rows, NNZ: int64(snnz)}
		row0 += rows
	}
	if uint64(row0) != m || nnzLeft != 0 {
		r.Fail("shards", "table sums to %d rows and %d nonzeros, header says %d and %d", row0, nnz-nnzLeft, m, nnz)
	}
	d.m = r.Count("m", m, 8)
	d.B = make([]float64, d.m)
	r.F64s("labels", d.B)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("stream: %s: %w", dir, err)
	}
	d.cache = newShardCache(d)
	return d, nil
}
