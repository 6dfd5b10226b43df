package stream

import (
	"bufio"
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
// parsed with the same grammar as libsvm.Read (shared libsvm.RowParser,
// so both paths accept and reject identical inputs) and spilled to CSR
// shards of BlockRows rows. Unlike the in-memory reader there is no row
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

	var (
		br     = bufio.NewReaderSize(r, 1<<20)
		line   []byte
		lineNo int
		parser libsvm.RowParser
		maxCol = -1

		// One block of CSR under construction.
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

	for {
		var err error
		line, err = readLine(br, line[:0])
		if err == io.EOF && len(line) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("stream: %v", err)
		}
		atEOF := err == io.EOF
		lineNo++
		if !libsvm.SkipBytes(line) {
			label, _, perr := parser.ParseBytes(line, lineNo, false)
			if perr != nil {
				return nil, perr
			}
			d.B = append(d.B, label)
			colIdx = append(colIdx, parser.Cols...)
			vals = append(vals, parser.Vals...)
			rowPtr = append(rowPtr, len(vals))
			if c := parser.MaxCol(); c > maxCol {
				maxCol = c
			}
			if len(rowPtr)-1 == opt.BlockRows {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if atEOF {
			break
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	if maxCol >= MaxFeatures {
		return nil, fmt.Errorf("stream: index %d exceeds the shard format's %d-feature cap", maxCol+1, MaxFeatures)
	}
	if d.n == 0 {
		d.n = maxCol + 1
	} else if maxCol >= d.n {
		return nil, fmt.Errorf("libsvm: index %d exceeds declared features %d", maxCol+1, d.n)
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

// readLine appends one line (without the terminator) to dst, growing
// past the reader's buffer as needed — this is what lets the streaming
// path accept rows wider than the in-memory reader's 64 MiB scanner
// cap. It returns io.EOF with the final unterminated line, if any.
func readLine(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		chunk, err := br.ReadSlice('\n')
		dst = append(dst, chunk...)
		switch err {
		case nil:
			if len(dst) > 0 && dst[len(dst)-1] == '\n' {
				dst = dst[:len(dst)-1]
			}
			if len(dst) > 0 && dst[len(dst)-1] == '\r' {
				dst = dst[:len(dst)-1]
			}
			return dst, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return dst, err
		}
	}
}
