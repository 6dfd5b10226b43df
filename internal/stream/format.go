package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"saco/internal/sparse"
)

// On-disk layout, version 2 (all fixed-width fields little-endian).
//
// Shard file (shard-NNNNN.bin) — one contiguous row block, stored either
// row-major (CSR) or column-major (CSC), with a per-shard codec flag:
//
//	magic    [8]byte  "SACOSHv2"
//	layout   uint8    0 = CSR, 1 = CSC
//	codec    uint8    0 = raw, 1 = delta-varint
//	reserved uint16
//	rows     uint32   block row count
//	cols     uint32   stored column width (CSC only; the decoder pads the
//	                  column pointer out to the dataset width, so shards
//	                  never spend bytes on trailing empty columns)
//	nnz      uint64
//	ptrBytes uint64   byte length of the ptr section
//	idxBytes uint64   byte length of the idx section
//	ptr      section  raw: (segments+1) × uint64 offsets
//	                  delta: segments × uvarint segment lengths
//	idx      section  raw: nnz × uint32
//	                  delta: per segment, uvarint(first) then
//	                  uvarint(difference) — indices are strictly
//	                  increasing within a segment, so every difference
//	                  is ≥ 1 and url-like skewed index distributions
//	                  collapse to one byte per entry
//	pad      to an 8-byte boundary
//	vals     section  raw: nnz × float64 IEEE-754 bits (the 8-alignment
//	                  lets the mmap read path serve this section as a
//	                  zero-copy []float64)
//	                  delta: nnz × uvarint(byte-reversed float64 bits) —
//	                  exact (bit-for-bit) for every value, and short for
//	                  the low-entropy values real LIBSVM files hold
//	                  (binary ±1 features, small integers, halves)
//
// A "segment" is a row for CSR shards and a column for CSC shards; its
// idx entries are column indices (CSR) or block-local row indices (CSC).
//
// Manifest file (manifest.bin), version 2 — dataset metadata plus the
// label vector (labels stay resident; at paper scale they are ~20 MB vs
// ~4 GB of matrix data):
//
//	magic     [8]byte  "SACOSMv2"
//	m, n      uint64
//	nnz       uint64
//	blockRows uint32
//	nshards   uint32
//	srcSize   uint64             source file size (0 = unrecorded)
//	srcMTime  int64              source mtime, unix nanos (0 = unrecorded)
//	layout    uint8
//	codec     uint8
//	reserved  [6]byte
//	shards    nshards × { rows uint32, nnz uint64 }
//	labels    m × float64
//
// Column indices are stored in (at most) 32 bits, which caps the
// feature space at 2³²−1 — 1000× the paper's widest dataset.
//
// The version-1 encodings have no read path any more; badMagic refuses
// them by name.
const (
	shardMagicV2 = "SACOSHv2"
	manifestV2   = "SACOSMv2"
	manifestName = "manifest.bin"

	shardHeaderV2 = 48

	// MaxFeatures is the widest column space the shard encoding holds.
	MaxFeatures = 1<<32 - 1
)

// Layout selects how a shard store arranges each row block on disk.
type Layout uint8

const (
	// LayoutCSR spills row-major shards: row-ptr / col-idx / val. Row
	// views decode it natively, column views convert per load.
	LayoutCSR Layout = iota
	// LayoutCSC spills column-major shards: col-ptr / row-idx / val.
	// Column views (the Lasso access pattern) decode it natively with
	// zero CSR→CSC conversions.
	LayoutCSC
)

// String names the layout for flags and reports.
func (l Layout) String() string {
	if l == LayoutCSC {
		return "csc"
	}
	return "csr"
}

// ParseLayout maps a flag value onto a Layout.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "csr":
		return LayoutCSR, nil
	case "csc":
		return LayoutCSC, nil
	}
	return 0, fmt.Errorf("stream: unknown layout %q (csr, csc)", s)
}

// Codec selects the shard section encoding.
type Codec uint8

const (
	// CodecRaw stores fixed-width sections (uint64 ptr, uint32 idx,
	// float64 vals). The vals section is 8-aligned, which is what lets
	// the mmap read path serve it zero-copy.
	CodecRaw Codec = iota
	// CodecDelta stores varint segment lengths, varint index deltas and
	// varint byte-reversed value bits: exact round-trip, and roughly
	// half the bytes on url-like inputs (skewed indices, low-entropy
	// values).
	CodecDelta
)

// String names the codec for flags and reports.
func (c Codec) String() string {
	if c == CodecDelta {
		return "delta"
	}
	return "raw"
}

// ParseCodec maps a flag value onto a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "raw":
		return CodecRaw, nil
	case "delta":
		return CodecDelta, nil
	}
	return 0, fmt.Errorf("stream: unknown codec %q (raw, delta)", s)
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
// as CSR arrays; for LayoutCSC the caller transposes first (cscFromBlock)
// and rowPtr/colIdx are ignored. The encoder builds the whole shard in
// one buffer — the block is already resident, and shard sizes are bounded
// by BlockRows.
func encodeShard(layout Layout, codec Codec, block shardBlock) []byte {
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

	var ptrSec, idxSec, valSec []byte
	switch codec {
	case CodecDelta:
		ptrSec = make([]byte, 0, len(segPtr))
		for s := 0; s+1 < len(segPtr); s++ {
			ptrSec = binary.AppendUvarint(ptrSec, uint64(segPtr[s+1]-segPtr[s]))
		}
		idxSec = make([]byte, 0, len(idx)*2)
		for s := 0; s+1 < len(segPtr); s++ {
			prev := -1
			for p := segPtr[s]; p < segPtr[s+1]; p++ {
				if prev < 0 {
					idxSec = binary.AppendUvarint(idxSec, uint64(idx[p]))
				} else {
					idxSec = binary.AppendUvarint(idxSec, uint64(idx[p]-prev))
				}
				prev = idx[p]
			}
		}
		valSec = make([]byte, 0, len(vals)*4)
		for _, v := range vals {
			valSec = binary.AppendUvarint(valSec, bits.ReverseBytes64(math.Float64bits(v)))
		}
	default:
		ptrSec = make([]byte, 8*len(segPtr))
		for k, v := range segPtr {
			binary.LittleEndian.PutUint64(ptrSec[8*k:], uint64(v))
		}
		idxSec = make([]byte, 4*len(idx))
		for k, v := range idx {
			binary.LittleEndian.PutUint32(idxSec[4*k:], uint32(v))
		}
		valSec = make([]byte, 8*len(vals))
		for k, v := range vals {
			binary.LittleEndian.PutUint64(valSec[8*k:], math.Float64bits(v))
		}
	}

	le := binary.LittleEndian
	pad := padTo8(shardHeaderV2 + len(ptrSec) + len(idxSec))
	out := make([]byte, 0, shardHeaderV2+len(ptrSec)+len(idxSec)+pad+len(valSec))
	var hdr [shardHeaderV2]byte
	copy(hdr[:], shardMagicV2)
	hdr[8] = byte(layout)
	hdr[9] = byte(codec)
	le.PutUint32(hdr[12:], uint32(rows))
	le.PutUint32(hdr[16:], uint32(cols))
	le.PutUint64(hdr[20:], uint64(len(vals)))
	le.PutUint64(hdr[28:], uint64(len(ptrSec)))
	le.PutUint64(hdr[36:], uint64(len(idxSec)))
	out = append(out, hdr[:]...)
	out = append(out, ptrSec...)
	out = append(out, idxSec...)
	out = append(out, make([]byte, pad)...)
	out = append(out, valSec...)
	return out
}

// padTo8 returns the zero-padding that aligns off to an 8-byte boundary.
func padTo8(off int) int { return (8 - off%8) % 8 }

// writeShard spills one encoded row block through the durable seam:
// a full disk cannot masquerade as a successful build, and a crash never
// leaves a torn shard under the final name.
func writeShard(path string, layout Layout, codec Codec, block shardBlock) error {
	return WriteFileAtomic(path, encodeShard(layout, codec, block))
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
	return a.ToCSC()
}

// decodeShard decodes one shard file. n is the dataset's global column
// count (shards do not record it). Exactly one of the returned blocks is
// non-nil, matching the shard's stored layout. refsData reports whether
// the decoded block aliases data (the zero-copy vals path): the caller
// must then keep the backing mapping alive. Every structural invariant is
// re-validated because the bytes come from disk.
func decodeShard(data []byte, n int, allowZeroCopy bool) (block shardBlock, refsData bool, err error) {
	// Magic before length: a version-1 shard can be shorter than a v2
	// header and must still be refused by name.
	if len(data) >= 8 && string(data[:8]) != shardMagicV2 {
		return shardBlock{}, false, fmt.Errorf("stream: %v", badMagic("shard", data[:8]))
	}
	if len(data) < shardHeaderV2 {
		return shardBlock{}, false, fmt.Errorf("stream: short shard header (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	layout := Layout(data[8])
	codec := Codec(data[9])
	if layout > LayoutCSC {
		return shardBlock{}, false, fmt.Errorf("stream: unknown shard layout %d", data[8])
	}
	if codec > CodecDelta {
		return shardBlock{}, false, fmt.Errorf("stream: unknown shard codec %d", data[9])
	}
	rows := int(le.Uint32(data[12:]))
	cols := int(le.Uint32(data[16:]))
	nnz64 := le.Uint64(data[20:])
	ptrBytes64 := le.Uint64(data[28:])
	idxBytes64 := le.Uint64(data[36:])
	body := uint64(len(data) - shardHeaderV2)
	if nnz64 > body || ptrBytes64 > body || idxBytes64 > body {
		return shardBlock{}, false, fmt.Errorf("stream: shard header declares %d nnz / %d+%d section bytes, file body is %d bytes", nnz64, ptrBytes64, idxBytes64, body)
	}
	nnz, ptrBytes, idxBytes := int(nnz64), int(ptrBytes64), int(idxBytes64)

	segs := rows
	if layout == LayoutCSC {
		segs = cols
		if cols > n {
			return shardBlock{}, false, fmt.Errorf("stream: shard stores %d columns, dataset has %d", cols, n)
		}
	}

	// Validate section sizes before any nnz- or segment-proportional
	// allocation, so a corrupt header cannot drive memory use.
	switch codec {
	case CodecRaw:
		if ptrBytes != 8*(segs+1) || idxBytes != 4*nnz {
			return shardBlock{}, false, fmt.Errorf("stream: raw shard sections %d+%d bytes, want %d+%d", ptrBytes, idxBytes, 8*(segs+1), 4*nnz)
		}
	default:
		// Varint sections: every segment length and every index costs at
		// least one byte.
		if segs > ptrBytes || nnz > idxBytes {
			return shardBlock{}, false, fmt.Errorf("stream: delta shard declares %d segments / %d nnz in %d/%d section bytes", segs, nnz, ptrBytes, idxBytes)
		}
	}
	pad := padTo8(shardHeaderV2 + ptrBytes + idxBytes)
	valOff := shardHeaderV2 + ptrBytes + idxBytes + pad
	if valOff > len(data) {
		return shardBlock{}, false, fmt.Errorf("stream: shard truncated before the vals section")
	}
	valSec := data[valOff:]
	if codec == CodecRaw && len(valSec) != 8*nnz {
		return shardBlock{}, false, fmt.Errorf("stream: raw vals section %d bytes, want %d", len(valSec), 8*nnz)
	}
	if codec == CodecDelta && nnz > len(valSec) {
		return shardBlock{}, false, fmt.Errorf("stream: delta vals section %d bytes for %d values", len(valSec), nnz)
	}

	// ptr section → segment offsets. CSC column pointers are padded out
	// to the dataset width so trailing empty columns cost no disk bytes.
	ptrLen := segs + 1
	if layout == LayoutCSC {
		ptrLen = n + 1
	}
	segPtr := make([]int, ptrLen)
	ptrSec := data[shardHeaderV2 : shardHeaderV2+ptrBytes]
	if codec == CodecDelta {
		off := 0
		for s := 0; s < segs; s++ {
			v, k := binary.Uvarint(ptrSec[off:])
			if k <= 0 || v > uint64(nnz) {
				return shardBlock{}, false, fmt.Errorf("stream: corrupt segment length at segment %d", s)
			}
			off += k
			segPtr[s+1] = segPtr[s] + int(v)
		}
		if off != len(ptrSec) {
			return shardBlock{}, false, fmt.Errorf("stream: %d trailing bytes after the ptr section", len(ptrSec)-off)
		}
	} else {
		if v := le.Uint64(ptrSec); v != 0 {
			return shardBlock{}, false, fmt.Errorf("stream: ptr[0] = %d, want 0", v)
		}
		for s := 1; s <= segs; s++ {
			v := le.Uint64(ptrSec[8*s:])
			if v > uint64(nnz) {
				return shardBlock{}, false, fmt.Errorf("stream: ptr[%d] = %d exceeds nnz %d", s, v, nnz)
			}
			segPtr[s] = int(v)
		}
	}
	for s := segs; s < ptrLen-1; s++ {
		segPtr[s+1] = segPtr[s]
	}
	if segPtr[ptrLen-1] != nnz {
		return shardBlock{}, false, fmt.Errorf("stream: ptr ends at %d, nnz is %d", segPtr[ptrLen-1], nnz)
	}

	// idx section.
	idx := make([]int, nnz)
	idxSec := data[shardHeaderV2+ptrBytes : shardHeaderV2+ptrBytes+idxBytes]
	if codec == CodecDelta {
		off := 0
		for s := 0; s < segs; s++ {
			prev := -1
			for p := segPtr[s]; p < segPtr[s+1]; p++ {
				v, k := binary.Uvarint(idxSec[off:])
				if k <= 0 {
					return shardBlock{}, false, fmt.Errorf("stream: corrupt index varint in segment %d", s)
				}
				off += k
				if prev < 0 {
					idx[p] = int(v)
				} else {
					idx[p] = prev + int(v)
				}
				if idx[p] < 0 {
					return shardBlock{}, false, fmt.Errorf("stream: index overflow in segment %d", s)
				}
				prev = idx[p]
			}
		}
		if off != len(idxSec) {
			return shardBlock{}, false, fmt.Errorf("stream: %d trailing bytes after the idx section", len(idxSec)-off)
		}
	} else {
		for k := range idx {
			idx[k] = int(le.Uint32(idxSec[4*k:]))
		}
	}

	// vals section: raw vals can be served straight out of an 8-aligned
	// mapping (zero-copy); everything else decodes into fresh memory.
	var vals []float64
	if codec == CodecRaw {
		if allowZeroCopy {
			vals, refsData = asFloat64LE(valSec, nnz)
		}
		if vals == nil {
			vals = make([]float64, nnz)
			for k := range vals {
				vals[k] = math.Float64frombits(le.Uint64(valSec[8*k:]))
			}
		}
	} else {
		vals = make([]float64, nnz)
		off := 0
		for k := range vals {
			v, n := binary.Uvarint(valSec[off:])
			if n <= 0 {
				return shardBlock{}, false, fmt.Errorf("stream: corrupt value varint at entry %d", k)
			}
			off += n
			vals[k] = math.Float64frombits(bits.ReverseBytes64(v))
		}
		if off != len(valSec) {
			return shardBlock{}, false, fmt.Errorf("stream: %d trailing bytes after the vals section", len(valSec)-off)
		}
	}

	if layout == LayoutCSC {
		csc, err := sparse.NewCSC(rows, n, segPtr, idx, vals)
		if err != nil {
			return shardBlock{}, false, err
		}
		return shardBlock{csc: csc}, refsData, nil
	}
	csr, err := sparse.NewCSR(rows, n, segPtr, idx, vals)
	if err != nil {
		return shardBlock{}, false, err
	}
	return shardBlock{csr: csr}, refsData, nil
}

// badMagic is the error for a file that does not start with the magic
// its reader expects. The version-1 store encodings ("SACOSHv1" shards,
// "SACOSMv1" manifests) are named, with the migration: a shard store is
// a cache of its LIBSVM source, so it is rebuilt, not converted.
func badMagic(what string, magic []byte) error {
	if m := string(magic); m == "SACOSHv1" || m == "SACOSMv1" {
		return fmt.Errorf("version-1 %s (%s) is no longer readable: delete the cache directory and re-ingest the LIBSVM source", what, m)
	}
	return fmt.Errorf("bad %s magic %q", what, magic)
}

// readShardFile loads and decodes one shard in copy mode: the file bytes
// pass through a transient heap buffer that is released as soon as the
// sections are decoded.
func readShardFile(path string, n int) (shardBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return shardBlock{}, err
	}
	block, _, err := decodeShard(data, n, false)
	if err != nil {
		return shardBlock{}, fmt.Errorf("stream: %s: %v", path, err)
	}
	return block, nil
}

// manifestHeader is the fixed-width prefix of manifest.bin; the shard
// table (12 bytes a shard) and the labels (8 bytes a row) follow it.
const manifestHeader = 64

// writeManifest publishes the dataset metadata and labels. It is the last
// write of a build and goes through the durable seam, so a directory
// holds either no manifest.bin (the build did not finish) or a whole one.
func writeManifest(d *Dataset) error {
	le := binary.LittleEndian
	img := make([]byte, manifestHeader, manifestHeader+12*len(d.shards)+8*len(d.B))
	copy(img, manifestV2)
	le.PutUint64(img[8:], uint64(d.m))
	le.PutUint64(img[16:], uint64(d.n))
	le.PutUint64(img[24:], uint64(d.nnz))
	le.PutUint32(img[32:], uint32(d.blockRows))
	le.PutUint32(img[36:], uint32(len(d.shards)))
	le.PutUint64(img[40:], uint64(d.srcSize))
	le.PutUint64(img[48:], uint64(d.srcMTime))
	img[56] = byte(d.layout)
	img[57] = byte(d.codec)
	for _, sh := range d.shards {
		img = le.AppendUint32(img, uint32(sh.Rows))
		img = le.AppendUint64(img, uint64(sh.NNZ))
	}
	for _, v := range d.B {
		img = le.AppendUint64(img, math.Float64bits(v))
	}
	return WriteFileAtomic(filepath.Join(d.dir, manifestName), img)
}

// manifestError reports a manifest.bin whose fields contradict each
// other or the file's size.
type manifestError struct{ dir, msg string }

func (e *manifestError) Error() string { return "stream: " + e.dir + ": corrupt manifest: " + e.msg }

// readManifest loads the metadata of a previously built dataset.
func readManifest(dir string) (*Dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	return decodeManifest(dir, data)
}

// decodeManifest parses a manifest image. The bytes come from disk, so
// the header is not trusted: the shard count and the row count must
// account for the file's size exactly before anything is allocated from
// them, and the shard table must be the even split Dataset.locate
// divides by.
func decodeManifest(dir string, data []byte) (*Dataset, error) {
	corrupt := func(format string, args ...any) (*Dataset, error) {
		return nil, &manifestError{dir, fmt.Sprintf(format, args...)}
	}
	// Magic before length: a version-1 manifest header is shorter than
	// this one and must still be refused by name.
	if len(data) >= 8 && string(data[:8]) != manifestV2 {
		return nil, fmt.Errorf("stream: %s: %v", dir, badMagic("manifest", data[:8]))
	}
	if len(data) < manifestHeader {
		return corrupt("%d bytes, shorter than the header", len(data))
	}
	le := binary.LittleEndian
	m, n := le.Uint64(data[8:]), le.Uint64(data[16:])
	blockRows, nshards := int(le.Uint32(data[32:])), int(le.Uint32(data[36:]))
	body := uint64(len(data) - manifestHeader)
	if m > body/8 || 12*uint64(nshards)+8*m != body {
		return corrupt("header declares %d shards and %d rows, which is not the %d bytes that follow it", nshards, m, body)
	}
	if n > MaxFeatures {
		return corrupt("%d features exceed the shard format's cap", n)
	}
	if blockRows < 1 {
		return corrupt("blockRows is 0")
	}
	d := &Dataset{
		dir: dir, m: int(m), n: int(n),
		nnz:       int64(le.Uint64(data[24:])),
		blockRows: blockRows,
		srcSize:   int64(le.Uint64(data[40:])),
		srcMTime:  int64(le.Uint64(data[48:])),
		layout:    Layout(data[56]),
		codec:     Codec(data[57]),
		shards:    make([]ShardInfo, nshards),
		B:         make([]float64, m),
	}
	if d.layout > LayoutCSC || d.codec > CodecDelta {
		return corrupt("unknown layout/codec %d/%d", data[56], data[57])
	}
	table := data[manifestHeader:]
	row0 := 0
	for i := range d.shards {
		rows := int(le.Uint32(table[12*i:]))
		if last := i == nshards-1; rows < 1 || rows > blockRows || (!last && rows != blockRows) {
			return corrupt("shard %d of %d holds %d rows, blockRows is %d", i, nshards, rows, blockRows)
		}
		d.shards[i] = ShardInfo{Row0: row0, Rows: rows, NNZ: int64(le.Uint64(table[12*i+4:]))}
		row0 += rows
	}
	if row0 != d.m {
		return corrupt("shard rows sum to %d, header says %d", row0, d.m)
	}
	labels := table[12*nshards:]
	for k := range d.B {
		d.B[k] = math.Float64frombits(le.Uint64(labels[8*k:]))
	}
	d.cache = newShardCache(d, defaultCacheShards)
	return d, nil
}
