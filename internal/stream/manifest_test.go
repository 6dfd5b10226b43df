package stream

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"saco/internal/wire"
)

// shardTable is the offset of a manifest's shard table.
const shardTable = 58

// realManifest builds a 5-row store in 2-row shards (so the shard table
// is 2, 2, 1) and returns its directory and manifest bytes.
func realManifest(t testing.TB) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	ds, err := Build(strings.NewReader("1 1:1\n-1 2:2\n1 3:3\n-1 1:4\n1 2:5\n"), dir, BuildOptions{BlockRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ds.Close()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// TestCorruptManifestRefused: manifest.bin is outside input. Every
// header lie below once drove an allocation, a division or an index from
// the lie itself; each is written under a recomputed checksum, so it
// reaches the decoder, and must come back from Open as a *wire.Error
// without panicking and without allocating in proportion to the lie.
// A lie under the old checksum is refused by the trailer itself.
func TestCorruptManifestRefused(t *testing.T) {
	dir, good := realManifest(t)
	body := good[:len(good)-4]
	le := binary.LittleEndian
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"oversized nshards", func(b []byte) []byte { le.PutUint32(b[36:], 0xFFFFFFFF); return b }},
		{"oversized m", func(b []byte) []byte { le.PutUint64(b[8:], 1<<62); return b }},
		{"m past the int range", func(b []byte) []byte { le.PutUint64(b[8:], 1<<63+5); return b }},
		{"blockRows = 0", func(b []byte) []byte { le.PutUint32(b[32:], 0); return b }},
		{"uneven shard table", func(b []byte) []byte {
			// 2,2,1 → 1,2,2: still sums to m, but row 1 no longer lives
			// where locate's division says.
			le.PutUint32(b[shardTable:], 1)
			le.PutUint32(b[shardTable+24:], 2)
			return b
		}},
		{"empty shard", func(b []byte) []byte { le.PutUint32(b[shardTable+24:], 0); return b }},
		{"truncated labels", func(b []byte) []byte { return b[:len(b)-8] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"truncated header", func(b []byte) []byte { return b[:40] }},
		{"oversized n", func(b []byte) []byte { le.PutUint64(b[16:], MaxFeatures+1); return b }},
		{"unknown layout", func(b []byte) []byte { b[56] = 7; return b }},
		{"header nnz off the table's sum", func(b []byte) []byte { le.PutUint64(b[24:], 6); return b }},
		{"shard nnz wrapping to the header", func(b []byte) []byte {
			// 2,2,1 → 2⁶⁴−1,5,1: the sum is 5 only modulo 2⁶⁴.
			le.PutUint64(b[shardTable+4:], ^uint64(0))
			le.PutUint64(b[shardTable+16:], 5)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(append([]byte(nil), body...))
			bad = bad[:len(bad):len(bad)] // each image below appends to its own copy
			for _, img := range [][]byte{wire.CRC32.Seal(bad), append(bad, good[len(good)-4:]...)} {
				if err := os.WriteFile(filepath.Join(dir, manifestName), img, 0o644); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				ds, err := Open(dir)
				runtime.ReadMemStats(&after)
				var we *wire.Error
				if !errors.As(err, &we) || we.Format != "manifest" || !strings.Contains(err.Error(), dir) {
					t.Fatalf("Open returned (%v, %v), want a *wire.Error naming the directory", ds, err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Fatalf("refusing a %d-byte manifest allocated %d bytes", len(img), grew)
				}
			}
		})
	}
	// The unmodified image still opens: the table above refuses lies, not
	// manifests.
	if err := os.WriteFile(filepath.Join(dir, manifestName), good, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if si, local := ds.locate(4); si != 2 || local != 0 {
		t.Fatalf("locate(4) = (%d, %d), want (2, 0)", si, local)
	}
}

// failingReader yields its text and then an I/O error instead of EOF:
// an ingest that dies after spilling shards, before the manifest.
type failingReader struct{ r io.Reader }

func (f failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errors.New("source went away")
	}
	return n, err
}

// TestInterruptedBuildLeavesNoManifest: the manifest is the last file
// published and goes through wire.WriteFile, so a build that stops after
// writing shards leaves a directory Open refuses — no manifest.bin, torn
// or otherwise — and no temp file under a final name.
func TestInterruptedBuildLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	_, err := Build(failingReader{strings.NewReader("1 1:1\n-1 2:2\n1 3:3\n")}, dir, BuildOptions{BlockRows: 1})
	if err == nil {
		t.Fatal("build over a failing source succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards := 0
	for _, e := range entries {
		if e.Name() == manifestName || strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("interrupted build left %s behind", e.Name())
		}
		shards++
	}
	if shards == 0 {
		t.Fatal("fixture wrote no shard before failing, so it interrupts nothing")
	}
	if _, err := Open(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open of an unfinished store: %v, want not-exist", err)
	}
}

// TestInterruptedRebuildRefused: a rebuild into a directory that already
// holds a store overwrites its shards in place. One that fails partway
// must not leave the old manifest over new and old shards — Open would
// serve the new rows with the old labels — and a shard that disagrees
// with its manifest entry must fail its load with a *shardMismatchError
// instead of being indexed by the manifest's counts.
func TestInterruptedRebuildRefused(t *testing.T) {
	dir := t.TempDir()
	if _, err := Build(strings.NewReader("1 1:1\n-1 2:2\n1 3:3\n-1 1:4\n"), dir, BuildOptions{BlockRows: 2}); err != nil {
		t.Fatal(err)
	}
	oldManifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	// The rebuild spills its first shard (3 nonzeros where the old one
	// held 2), then its source fails.
	newText := "-1 1:9 2:1\n1 2:8\n-1 3:7\n"
	if _, err := Build(failingReader{strings.NewReader(newText)}, dir, BuildOptions{BlockRows: 2}); err == nil {
		t.Fatal("rebuild over a failing source succeeded")
	}
	if ds, err := Open(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open after an interrupted rebuild: (%v, %v), want not-exist", ds, err)
	}

	// Put the old manifest back over the mixed shards: it opens, but the
	// new shard 0 is refused by type.
	if err := os.WriteFile(filepath.Join(dir, manifestName), oldManifest, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	it := ds.Blocks()
	if it.Next() {
		t.Fatalf("shard 0 of another build loaded: %+v", it.Block().A)
	}
	var me *shardMismatchError
	if !errors.As(it.Err(), &me) {
		t.Fatalf("load error %v, want a *shardMismatchError", it.Err())
	}
}

// FuzzReadManifest: no manifest image may panic the decoder or make a
// refusal allocate in proportion to a header field, and one it accepts
// must describe a store locate can divide. The harness recomputes the
// trailer over the fuzzed image, so a mutation reaches the decoder past
// the checksum.
func FuzzReadManifest(f *testing.F) {
	_, good := realManifest(f)
	f.Add(good)
	f.Add(wire.CRC32.Seal(append([]byte(nil), good[:shardTable]...)))
	f.Add([]byte("SACOSMv1"))
	f.Add([]byte("SACOSMv2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = wire.CRC32.Seal(append([]byte(nil), data[:len(data)-4]...))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := decodeManifest("fuzz", data)
		runtime.ReadMemStats(&after)
		if err != nil {
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("refusing a %d-byte manifest allocated %d bytes: %v", len(data), grew, err)
			}
			return
		}
		if len(d.B) != d.m || d.blockRows < 1 {
			t.Fatalf("accepted manifest: %d labels for %d rows, blockRows %d", len(d.B), d.m, d.blockRows)
		}
		var nnz uint64
		for _, sh := range d.shards {
			nnz += uint64(sh.NNZ)
		}
		if nnz != uint64(d.nnz) {
			t.Fatalf("accepted manifest: shard nonzeros sum to %d, header says %d", nnz, d.nnz)
		}
		for i := 0; i < d.m; i++ {
			si, local := d.locate(i)
			if local < 0 || local >= d.shards[si].Rows {
				t.Fatalf("row %d located at shard %d row %d of %d", i, si, local, d.shards[si].Rows)
			}
		}
	})
}
