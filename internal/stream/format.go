package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

// writeShard spills one encoded row block, syncing before close so a full
// disk cannot masquerade as a successful build.
func writeShard(path string, layout Layout, codec Codec, block shardBlock) error {
	data := encodeShard(layout, codec, block)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	return f.Close()
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

// writeManifest persists the dataset metadata and labels, syncing before
// close so a full disk cannot masquerade as a successful build.
func writeManifest(d *Dataset) (err error) {
	f, err := os.Create(filepath.Join(d.dir, manifestName))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var hdr [64]byte
	copy(hdr[:], manifestV2)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.m))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(d.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(d.nnz))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(d.blockRows))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(len(d.shards)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(d.srcSize))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(d.srcMTime))
	hdr[56] = byte(d.layout)
	hdr[57] = byte(d.codec)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	var rec [12]byte
	for _, sh := range d.shards {
		binary.LittleEndian.PutUint32(rec[:], uint32(sh.Rows))
		binary.LittleEndian.PutUint64(rec[4:], uint64(sh.NNZ))
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
			return err
		}
	}
	buf := make([]byte, 8*4096)
	if err := writeChunked(bw, buf, len(d.B), 8, func(k int, b []byte) {
		binary.LittleEndian.PutUint64(b, math.Float64bits(d.B[k]))
	}); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //saco:nolint commerr best-effort close on an already-failing path; the first error is propagating and the success path checks Close
		return err
	}
	return f.Close()
}

// writeChunked encodes count fixed-width elements through a bounded
// scratch buffer, so spilling never doubles the block's memory.
func writeChunked(w io.Writer, buf []byte, count, width int, put func(k int, b []byte)) error {
	per := len(buf) / width
	for base := 0; base < count; base += per {
		end := min(base+per, count)
		b := buf[:(end-base)*width]
		for k := base; k < end; k++ {
			put(k, b[(k-base)*width:])
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readManifest loads the metadata of a previously built dataset.
func readManifest(dir string) (*Dataset, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close() //saco:nolint commerr read-only fd; a close failure after a successful read cannot lose data
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [64]byte
	if _, err := io.ReadFull(br, hdr[:8]); err != nil {
		return nil, fmt.Errorf("stream: %s: short manifest: %v", dir, err)
	}
	if string(hdr[:8]) != manifestV2 {
		return nil, fmt.Errorf("stream: %s: %v", dir, badMagic("manifest", hdr[:8]))
	}
	if _, err := io.ReadFull(br, hdr[8:]); err != nil {
		return nil, fmt.Errorf("stream: %s: short manifest: %v", dir, err)
	}
	d := &Dataset{
		dir:       dir,
		m:         int(binary.LittleEndian.Uint64(hdr[8:])),
		n:         int(binary.LittleEndian.Uint64(hdr[16:])),
		nnz:       int64(binary.LittleEndian.Uint64(hdr[24:])),
		blockRows: int(binary.LittleEndian.Uint32(hdr[32:])),
		srcSize:   int64(binary.LittleEndian.Uint64(hdr[40:])),
		srcMTime:  int64(binary.LittleEndian.Uint64(hdr[48:])),
	}
	d.layout = Layout(hdr[56])
	d.codec = Codec(hdr[57])
	if d.layout > LayoutCSC || d.codec > CodecDelta {
		return nil, fmt.Errorf("stream: %s: unknown manifest layout/codec %d/%d", dir, hdr[56], hdr[57])
	}
	nshards := int(binary.LittleEndian.Uint32(hdr[36:]))
	d.shards = make([]ShardInfo, nshards)
	row0 := 0
	var rec [12]byte
	for i := range d.shards {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("stream: %s: shard table: %v", dir, err)
		}
		d.shards[i] = ShardInfo{
			Row0: row0,
			Rows: int(binary.LittleEndian.Uint32(rec[:])),
			NNZ:  int64(binary.LittleEndian.Uint64(rec[4:])),
		}
		row0 += d.shards[i].Rows
	}
	if row0 != d.m {
		return nil, fmt.Errorf("stream: %s: shard rows sum to %d, manifest says %d", dir, row0, d.m)
	}
	d.B = make([]float64, d.m)
	buf := make([]byte, 8*4096)
	if err := readChunked(br, buf, d.m, 8, func(k int, b []byte) {
		d.B[k] = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}); err != nil {
		return nil, fmt.Errorf("stream: %s: labels: %v", dir, err)
	}
	d.cache = newShardCache(d, defaultCacheShards)
	return d, nil
}

// readChunked is the decoding mirror of writeChunked.
func readChunked(r io.Reader, buf []byte, count, width int, get func(k int, b []byte)) error {
	per := len(buf) / width
	for base := 0; base < count; base += per {
		end := min(base+per, count)
		b := buf[:(end-base)*width]
		if _, err := io.ReadFull(r, b); err != nil {
			return err
		}
		for k := base; k < end; k++ {
			get(k, b[(k-base)*width:])
		}
	}
	return nil
}
