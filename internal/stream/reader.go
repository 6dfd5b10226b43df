package stream

import (
	"fmt"
	"io"
	"os"

	"saco/internal/libsvm"
	"saco/internal/sparse"
)

// BuildOptions configures an out-of-core ingestion.
type BuildOptions struct {
	// BlockRows is the rows-per-shard spill threshold; 0 means 8192.
	BlockRows int
	// Features declares the column count; 0 infers it from the largest
	// index seen (like libsvm.Read).
	Features int
	// Layout selects row-major (LayoutCSR, the zero value) or
	// column-major (LayoutCSC) shards: pick the one the solver reads —
	// CSC for Lasso's column access, CSR for the SVM's row access. A
	// solve over the other layout stays bitwise, converting per load.
	Layout Layout
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.BlockRows <= 0 {
		o.BlockRows = 8192
	}
	return o
}

// Build ingests a LIBSVM stream into dir in bounded memory: rows are
// read by libsvm.Scan, the line reader under libsvm.Read too (so both
// paths accept and reject identical inputs), and spilled to shards of
// BlockRows rows. Unlike the in-memory reader there is no row
// length cap — lines grow as needed — and peak memory is one block plus
// the label vector.
func Build(r io.Reader, dir string, opt BuildOptions) (*Dataset, error) {
	return build(r, dir, opt, 0, 0)
}

// build is Build plus the source-identity stamp BuildFile records so
// cache reuse can detect a stale or foreign shard directory.
func build(r io.Reader, dir string, opt BuildOptions, srcSize, srcMTime int64) (*Dataset, error) {
	opt = opt.withDefaults()
	if dir == "" {
		return nil, fmt.Errorf("stream: empty cache directory")
	}
	if err := startStore(dir); err != nil {
		return nil, err
	}
	d := &Dataset{
		dir: dir, n: opt.Features, blockRows: opt.BlockRows, layout: opt.Layout,
		srcSize: srcSize, srcMTime: srcMTime,
	}

	// One block of CSR under construction.
	var (
		rowPtr = make([]int, 1, opt.BlockRows+1)
		colIdx []int
		vals   []float64
	)
	flush := func() error {
		rows := len(rowPtr) - 1
		if rows == 0 {
			return nil
		}
		info := ShardInfo{Row0: d.m, Rows: rows, NNZ: int64(len(vals))}
		block := shardBlock{csr: &sparse.CSR{M: rows, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}}
		if opt.Layout == LayoutCSC {
			// Transpose the block before it spills — the same counting
			// transpose a CSR store pays per load, paid once at ingest.
			block = shardBlock{csc: cscFromBlock(rowPtr, colIdx, vals)}
		}
		if err := writeShard(shardPath(dir, len(d.shards)), opt.Layout, block); err != nil {
			return err
		}
		d.shards = append(d.shards, info)
		d.m += rows
		d.nnz += info.NNZ
		rowPtr = rowPtr[:1]
		colIdx = colIdx[:0]
		vals = vals[:0]
		return nil
	}

	maxCol, err := libsvm.Scan(r, 0, func(label float64, p *libsvm.RowParser) error {
		d.B = append(d.B, label)
		colIdx = append(colIdx, p.Cols...)
		vals = append(vals, p.Vals...)
		rowPtr = append(rowPtr, len(vals))
		if len(rowPtr)-1 == opt.BlockRows {
			return flush()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if maxCol >= MaxFeatures {
		return nil, fmt.Errorf("stream: index %d exceeds the shard format's %d-feature cap", maxCol+1, MaxFeatures)
	}
	if d.n, err = libsvm.Width(maxCol, d.n); err != nil {
		return nil, err
	}
	d.cache = newShardCache(d)
	if err := writeManifest(d); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildFile ingests a LIBSVM file from disk into dir, recording the
// file's size and modification time in the manifest so SourceMatches
// can catch reuse of the cache against different data.
func BuildFile(path, dir string, opt BuildOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //saco:nolint commerr read-only fd; a close failure after a successful read cannot lose data
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return build(f, dir, opt, st.Size(), st.ModTime().UnixNano())
}
